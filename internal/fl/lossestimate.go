package fl

import (
	"sync"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// lossScratch recycles the working buffers of the Phase-2 loss
// estimators so repeated estimates allocate nothing once warm.
type lossScratch struct {
	s      Scratch
	shard  population.ShardScratch
	cohort []int
}

var lossPool = sync.Pool{New: func() any { return new(lossScratch) }}

// LossEstimate implements the LossEstimation procedure of Phase 2: each
// of the n clients of src evaluates w on a mini-batch drawn from its
// stream r.Child(c), and the edge averages the estimates in client
// order, yielding an unbiased estimate of f_e(w). Resident areas
// (AreaClients) and roster cohorts (CohortLossEstimate) share it, so
// every engine and every baseline reproduces the identical estimate.
// Memory is O(shard), never O(n).
func LossEstimate(m model.Model, w []float64, n int, src ClientSource, lossBatch int, r *rng.Stream) float64 {
	ls := lossPool.Get().(*lossScratch)
	defer lossPool.Put(ls)
	return ls.estimate(m, w, n, src, lossBatch, r)
}

// CohortLossEstimate is LossEstimate over the edge's round cohort in
// the sparse population regime, with shards materialized lazily (row
// aliases into the area corpus).
func CohortLossEstimate(m model.Model, w []float64, corpus data.Subset, roster population.Roster, round, edge, lossBatch int, r *rng.Stream) float64 {
	ls := lossPool.Get().(*lossScratch)
	defer lossPool.Put(ls)
	ls.cohort = roster.CohortInto(ls.cohort, round, edge)
	return ls.estimate(m, w, len(ls.cohort), CohortClients(roster, ls.cohort, corpus), lossBatch, r)
}

func (ls *lossScratch) estimate(m model.Model, w []float64, n int, src ClientSource, lossBatch int, r *rng.Stream) float64 {
	s := &ls.s
	total := 0.0
	if tensor.StorageF32() {
		if fm, ok := m.(model.F32Model); ok {
			// Convert w once per estimate, not once per client: the same
			// w32 bits and per-client stream draws as routing every
			// client through ShardLossEstimate.
			s.size32(len(w), lossBatch)
			tensor.ToF32(s.w32, w)
			for c := 0; c < n; c++ {
				src(c, &ls.shard).SampleInto32(r.Child(uint64(c)), s.xs32, s.ys)
				total += float64(fm.LossF32(s.w32, s.xs32, s.ys))
			}
			return total / float64(n)
		}
	}
	for c := 0; c < n; c++ {
		total += ShardLossEstimate(m, w, src(c, &ls.shard), lossBatch, r.Child(uint64(c)), s)
	}
	return total / float64(n)
}
