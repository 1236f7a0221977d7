package baselines

import (
	"repro/internal/fl"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// HierFAvg is hierarchical Federated Averaging (Liu et al. [21]): the
// same three-layer client-edge-cloud architecture and (tau1, tau2)
// schedule as HierMinimax, but solving the minimization problem (1) —
// edges are sampled uniformly and the weights p stay uniform forever.
// The gap between HierFAvg and HierMinimax therefore isolates exactly
// the minimax fairness mechanism (Table 2's comparison).
func HierFAvg(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	pool := fl.NewModelPool(prob.Model)
	var folds []slotFold
	return fl.Run("HierFAvg", prob, cfg, func(k int, st *fl.State) {
		hierFAvgRound(k, st, pool, &folds)
	})
}

// slotFold is a baseline's per-slot fold scratch, reused across rounds:
// the fold and, in the population regime, the slot's cohort ids.
type slotFold struct {
	fl.Fold
	cohort []int
}

func hierFAvgRound(k int, st *fl.State, pool *fl.ModelPool, folds *[]slotFold) {
	cfg := &st.Cfg
	prob := st.Prob
	d := len(st.W)
	dBytes := topology.ModelBytes(d)
	kr := st.Root.ChildN('k', uint64(k))

	// Uniform edge sampling (no p).
	edges := kr.Child(1).SampleUniform(cfg.SampledEdges, prob.Fed.NumAreas())
	st.Ledger.RecordRound(topology.EdgeCloud, len(edges), dBytes)
	if len(*folds) < len(edges) {
		*folds = make([]slotFold, len(edges))
	}

	// Each sampled edge runs its tau2 aggregation blocks over its
	// resident clients — or, in the sparse population regime, its
	// (k, edge) roster cohort, the same sampler as HierMinimax — with
	// HierFAvg's uniform edge weights.
	type out struct {
		wEdge, iterSum []float64
		n              int
	}
	outs := make([]out, len(edges))
	cfg.ForEach(len(edges), func(i int) {
		e := edges[i]
		fd := &(*folds)[i]
		area := prob.Fed.Areas[e]
		n := len(area.Clients)
		src := fl.AreaClients(area.Clients)
		if cfg.PopulationEnabled() {
			roster := cfg.Roster(prob.Fed.NumAreas())
			fd.cohort = roster.CohortInto(fd.cohort, k, e)
			n = len(fd.cohort)
			src = fl.CohortClients(roster, fd.cohort, area.Train)
		}
		var iterSum []float64
		if cfg.TrackAverages {
			iterSum = make([]float64, d)
		}
		we := append([]float64(nil), st.W...)
		er := kr.ChildVal(2).ChildVal(uint64(i))
		for t2 := 0; t2 < cfg.Tau2; t2++ {
			st.Ledger.RecordRound(topology.ClientEdge, n, dBytes)
			bs := er.ChildVal(uint64(t2))
			fd.Run(cfg, prob.W, pool, fl.Clients{
				N: n, Source: src,
				Stream:  func(c int) rng.Stream { return bs.ChildVal(uint64(c)) },
				Start:   we,
				IterSum: iterSum,
			})
			st.Ledger.RecordRound(topology.ClientEdge, n, dBytes)
			fd.W.FinishInto(we)
			fl.ProjectW(prob.W, we)
		}
		outs[i] = out{wEdge: we, iterSum: iterSum, n: n}
	})
	st.Ledger.RecordRound(topology.EdgeCloud, len(edges), dBytes)

	wVecs := make([][]float64, len(outs))
	for i, o := range outs {
		wVecs[i] = o.wEdge
		if st.WSum != nil {
			tensor.StorageAdd(st.WSum, o.iterSum)
			st.WCount += float64(cfg.Tau1 * cfg.Tau2 * o.n)
		}
	}
	tensor.AverageInto(st.W, wVecs...)
	fl.ProjectW(prob.W, st.W)
}
