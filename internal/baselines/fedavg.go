// Package baselines implements the four comparison methods of §6 —
// FedAvg [23], Stochastic-AFL [25], DRFA [10] and HierFAvg [21] — over
// the same substrates (models, data, topology ledger) as HierMinimax, so
// the communication and fairness comparisons are apples-to-apples. Each
// baseline is implemented from its own paper's description rather than by
// reconfiguring HierMinimax.
package baselines

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/optim"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/topology"
)

// FedAvg is standard Federated Averaging (McMahan et al. [23]) on the
// two-layer client-server architecture: every round the server samples
// m = SampledEdges*N0 clients uniformly, each runs Tau1 local SGD steps,
// and the server averages the returned models. It solves the
// minimization problem (1) with fixed uniform weights; p is never
// updated. Config.Tau2 must be 1 (two-layer methods have no client-edge
// aggregation).
func FedAvg(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	if err := requireTwoLayer("FedAvg", cfg); err != nil {
		return nil, err
	}
	pool := fl.NewModelPool(prob.Model)
	top := prob.Topology()
	var fold fl.Fold
	return fl.Run("FedAvg", prob, cfg, func(k int, st *fl.State) {
		cfg := &st.Cfg
		dBytes := topology.ModelBytes(len(st.W))
		kr := st.Root.ChildN('k', uint64(k))
		// The server samples m = SampledEdges*N0 resident clients
		// uniformly. In the sparse population regime it samples
		// SamplePerRound registered clients uniformly instead (FedAvg's
		// sampling distribution is uniform over clients, not p-weighted
		// over edges), whose shards materialize lazily from the striped
		// edge corpora.
		var clients []int
		var src fl.ClientSource
		if cfg.PopulationEnabled() {
			roster := cfg.Roster(prob.Fed.NumAreas())
			clients = kr.Child(1).SampleUniform(cfg.SamplePerRound, cfg.Population)
			src = func(i int, s *population.ShardScratch) data.Subset {
				id := clients[i]
				return roster.ShardInto(id, prob.Fed.Areas[roster.EdgeOf(id)].Train, s)
			}
		} else {
			clients = kr.Child(1).SampleUniform(cfg.SampledEdges*top.ClientsPerEdge, top.NumClients())
			src = func(i int, _ *population.ShardScratch) data.Subset {
				c := clients[i]
				return prob.Fed.Areas[top.EdgeOf(c)].Clients[c%top.ClientsPerEdge]
			}
		}
		n := len(clients)
		st.Ledger.RecordRound(topology.ClientCloud, n, dBytes)
		var iterSum []float64
		if cfg.TrackAverages {
			iterSum = st.WSum
			st.WCount += float64(cfg.Tau1 * n)
		}
		cr := kr.ChildVal(2)
		fold.Run(cfg, prob.W, pool, fl.Clients{
			N: n, Source: src,
			Stream:  func(i int) rng.Stream { return cr.ChildVal(uint64(i)) },
			Start:   st.W,
			IterSum: iterSum,
		})
		st.Ledger.RecordRound(topology.ClientCloud, n, dBytes)
		fold.W.FinishInto(st.W)
		fl.ProjectW(prob.W, st.W)
	})
}

// requireTwoLayer rejects configurations with client-edge aggregation,
// which two-layer methods cannot perform.
func requireTwoLayer(name string, cfg fl.Config) error {
	if cfg.Tau2 > 1 {
		return fmt.Errorf("baselines: %s is a two-layer method; Tau2 must be 1, got %d", name, cfg.Tau2)
	}
	return nil
}

// uniformLossEstimates samples m_E edges uniformly, estimates each
// sampled edge's loss at w from its clients — its resident clients or,
// in the sparse population regime, its round-k roster cohort — and
// returns the unbiased gradient estimate v (v_e = (N_E/m_E) f_e(w) on
// sampled edges, 0 elsewhere). The two-layer methods' clients talk to
// the server directly: the ledger prices the model broadcast and the
// scalar uplinks on the client-cloud link, per sampled edge with
// resident clients and per cohort member with a population.
func uniformLossEstimates(st *fl.State, pool *fl.ModelPool, k int, w []float64, r *rng.Stream) []float64 {
	cfg := &st.Cfg
	prob := st.Prob
	nE := prob.Fed.NumAreas()
	dBytes := topology.ModelBytes(len(w))
	sampled := r.SampleUniform(cfg.SampledEdges, nE)
	var roster population.Roster
	msgs := len(sampled)
	if cfg.PopulationEnabled() {
		roster = cfg.Roster(nE)
		msgs = 0
		for _, e := range sampled {
			msgs += roster.CohortSize(e)
		}
	}
	st.Ledger.RecordRound(topology.ClientCloud, msgs, dBytes)
	losses := make([]float64, len(sampled))
	cfg.ForEach(len(sampled), func(i int) {
		m := pool.Get()
		defer pool.Put(m)
		er := r.ChildN(5, uint64(i))
		area := prob.Fed.Areas[sampled[i]]
		if cfg.PopulationEnabled() {
			losses[i] = fl.CohortLossEstimate(m, w, area.Train, roster, k, sampled[i], cfg.LossBatch, er)
		} else {
			losses[i] = fl.LossEstimate(m, w, len(area.Clients), fl.AreaClients(area.Clients), cfg.LossBatch, er)
		}
	})
	st.Ledger.RecordRound(topology.ClientCloud, msgs, 8)
	v := make([]float64, nE)
	scale := float64(nE) / float64(cfg.SampledEdges)
	for i, e := range sampled {
		v[e] += scale * losses[i]
	}
	return v
}

// ascendP applies p <- Proj_P(p + step*v).
func ascendP(st *fl.State, v []float64, step float64) {
	optim.AscentStep(st.P, v, step, st.Prob.P)
}
