package baselines

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// StochasticAFL is the Stochastic Agnostic Federated Learning algorithm
// of Mohri, Sivek and Suresh [25]: two-layer minimax with a single local
// SGD step per round. Every round the server samples edge slots by
// p^(k), each slot's clients take one projected SGD step from w^(k), the
// server averages the returned models into w^(k+1), then updates p by
// projected gradient ascent on uniformly-sampled loss estimates of
// w^(k+1). Config.Tau1 and Config.Tau2 must both be 1.
func StochasticAFL(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	if err := requireTwoLayer("Stochastic-AFL", cfg); err != nil {
		return nil, err
	}
	if cfg.Tau1 > 1 {
		return nil, fmt.Errorf("baselines: Stochastic-AFL uses single-step updates; Tau1 must be 1, got %d", cfg.Tau1)
	}
	pool := fl.NewModelPool(prob.Model)
	var folds []slotFold
	return fl.Run("Stochastic-AFL", prob, cfg, func(k int, st *fl.State) {
		minimaxTwoLayerRound(k, st, pool, 1, &folds)
	})
}

// DRFA is Distributionally Robust Federated Averaging (Deng, Kamani,
// Mahdavi [10]): two-layer minimax with Tau1 local SGD steps per round
// and a uniformly-random per-round checkpoint index c1 in [Tau1] at which
// the p-gradient is estimated — the two-layer special case (tau2 = 1) of
// the checkpoint mechanism. Config.Tau2 must be 1.
func DRFA(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	if err := requireTwoLayer("DRFA", cfg); err != nil {
		return nil, err
	}
	pool := fl.NewModelPool(prob.Model)
	var folds []slotFold
	return fl.Run("DRFA", prob, cfg, func(k int, st *fl.State) {
		minimaxTwoLayerRound(k, st, pool, cfg.WithDefaults().Tau1, &folds)
	})
}

// minimaxTwoLayerRound advances one round of a two-layer minimax method
// with tau1 local steps. With tau1 = 1 it is Stochastic-AFL (the
// checkpoint after 1 step is exactly the aggregated next iterate); with
// tau1 > 1 it is DRFA. folds is caller-owned per-slot fold scratch,
// reused across rounds.
func minimaxTwoLayerRound(k int, st *fl.State, pool *fl.ModelPool, tau1 int, folds *[]slotFold) {
	cfg := &st.Cfg
	prob := st.Prob
	d := len(st.W)
	dBytes := topology.ModelBytes(d)
	kr := st.Root.ChildN('k', uint64(k))

	// Sample edge slots i.i.d. from the categorical distribution p^(k)
	// (with replacement), as Phase-1 unbiasedness requires — the same
	// deterministic draw HierMinimax makes from its own stream keys.
	slots := kr.Child(1).SampleWeighted(cfg.SampledEdges, st.P)
	c1 := 1 + kr.Child(2).Intn(tau1) // checkpoint step (DRFA); trivial for tau1=1
	sr := kr.ChildVal(3)

	wChk := make([]float64, d)
	var nTot int
	if cfg.PopulationEnabled() {
		// Sparse population: each sampled slot trains its (k, edge)
		// roster cohort — the identical sampler the HierMinimax engines
		// use — in its own fold. The server then averages the slot
		// means (cohorts share a size, so the uniform weighting over
		// participants is preserved).
		roster := cfg.Roster(prob.Fed.NumAreas())
		if len(*folds) < len(slots) {
			*folds = make([]slotFold, len(slots))
		}
		wVecs := make([][]float64, len(slots))
		chkVecs := make([][]float64, len(slots))
		iterSums := make([][]float64, len(slots))
		cfg.ForEach(len(slots), func(i int) {
			e := slots[i]
			fd := &(*folds)[i]
			fd.cohort = roster.CohortInto(fd.cohort, k, e)
			if cfg.TrackAverages {
				iterSums[i] = make([]float64, d)
			}
			ss := sr.ChildVal(uint64(i))
			fd.Run(cfg, prob.W, pool, fl.Clients{
				N:       len(fd.cohort),
				Source:  fl.CohortClients(roster, fd.cohort, prob.Fed.Areas[e].Train),
				Stream:  func(c int) rng.Stream { return ss.ChildVal(uint64(c)) },
				Start:   st.W,
				ChkAt:   c1,
				IterSum: iterSums[i],
			})
			wVecs[i], chkVecs[i] = make([]float64, d), make([]float64, d)
			fd.W.FinishInto(wVecs[i])
			fd.Chk.FinishInto(chkVecs[i])
		})
		for i := range slots {
			n := len((*folds)[i].cohort)
			nTot += n
			if st.WSum != nil {
				tensor.StorageAdd(st.WSum, iterSums[i])
				st.WCount += float64(tau1 * n)
			}
		}
		tensor.AverageInto(st.W, wVecs...)
		tensor.AverageInto(wChk, chkVecs...)
	} else {
		// Resident clients: the slots' clients form one slot-major
		// (slot, client) list folded into one flat average, the
		// server's uniform weighting over every participant.
		n0 := prob.Topology().ClientsPerEdge
		nTot = len(slots) * n0
		if len(*folds) < 1 {
			*folds = make([]slotFold, 1)
		}
		fd := &(*folds)[0]
		var iterSum []float64
		if cfg.TrackAverages {
			iterSum = st.WSum
			st.WCount += float64(tau1 * nTot)
		}
		fd.Run(cfg, prob.W, pool, fl.Clients{
			N: nTot,
			Source: func(i int, _ *population.ShardScratch) data.Subset {
				return prob.Fed.Areas[slots[i/n0]].Clients[i%n0]
			},
			Stream:  func(i int) rng.Stream { return sr.ChildVal(uint64(i / n0)).ChildVal(uint64(i % n0)) },
			Start:   st.W,
			ChkAt:   c1,
			IterSum: iterSum,
		})
		fd.W.FinishInto(st.W)
		fd.Chk.FinishInto(wChk)
	}
	// Server broadcast to, and model + checkpoint uploads from, every
	// participating client.
	st.Ledger.RecordRound(topology.ClientCloud, nTot, dBytes)
	st.Ledger.RecordRound(topology.ClientCloud, nTot, 2*dBytes)
	fl.ProjectW(prob.W, st.W)

	// Weight update at the checkpoint model, step eta_p * tau1.
	v := uniformLossEstimates(st, pool, k, wChk, kr.Child(4))
	ascendP(st, v, cfg.EtaP*float64(tau1))
}
