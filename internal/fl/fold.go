package fl

import (
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/tensor"
)

// ClientSource returns client i of a fold's cohort: a resident shard of
// an edge area, a roster cohort member, or a uniformly sampled client.
// Sources that materialize shards lazily build them in s, the scratch
// of the lane training client i; resident sources ignore it.
type ClientSource func(i int, s *population.ShardScratch) data.Subset

// AreaClients is the source of an edge area's resident clients.
func AreaClients(clients []data.Subset) ClientSource {
	return func(i int, _ *population.ShardScratch) data.Subset { return clients[i] }
}

// CohortClients is the source of a roster cohort: client i is the
// registered client cohort[i], its shard materialized out of corpus.
func CohortClients(roster population.Roster, cohort []int, corpus data.Subset) ClientSource {
	return func(i int, s *population.ShardScratch) data.Subset {
		return roster.ShardInto(cohort[i], corpus, s)
	}
}

// Clients describes one fold: N clients from Source, each running
// cfg.Tau1 local SGD steps from Start on its own stream.
type Clients struct {
	N      int
	Source ClientSource
	// Stream returns client i's stream. The fold keeps the value in the
	// lane, so deriving it (rng.Stream.ChildVal) allocates nothing.
	Stream func(i int) rng.Stream
	// Start is the model every client starts from; the fold only reads it.
	Start []float64
	// ChkAt is the local step after which clients record the checkpoint
	// (0: no checkpoint this fold).
	ChkAt int
	// IterSum, when non-nil, receives every client's iterate sum,
	// added in source order in the storage regime's arithmetic.
	IterSum []float64
	// Compression compresses each client's uplinked model and
	// checkpoint; Resid, when non-nil, holds the error-feedback residual
	// of client i at Resid[i]. The zero value means exact uplinks.
	Compression quant.Config
	Resid       [][]float64
}

// foldLanes is the number of clients a fold trains at once: live
// model-sized buffers stay O(foldLanes*d) however many clients a fold
// has, while every worker stays busy. The fold order is source order for
// any lane count, so the constant never changes a trajectory.
const foldLanes = 32

// Fold is the slot fold of the in-process engines: it trains a cohort
// of clients in lanes on tensor.ParallelFor workers (sequentially under
// cfg.Sequential) and streams their models, checkpoints and iterate
// sums into O(d) accumulators in source order. Resident edges, roster
// cohorts and uniform client samples differ only in their ClientSource.
//
// Lane buffers live in the active storage class: on the avx2f32 tier,
// with a model that has a float32 path, clients run LocalSGD32Scratch
// on float32 lanes that fold into the float32 accumulators directly,
// and the model and iterate sum cross the float64 boundary once per
// fold, not once per client. The results are bit-for-bit those of
// tensor.AverageInto and tensor.StorageAdd over the clients in source
// order, in every kernel class.
//
// A zero Fold is ready to use and is reused across calls; it is not
// safe for concurrent Runs.
type Fold struct {
	// W and Chk hold the means of the client models and of the
	// checkpoints recorded by the last Run; callers finish them into the
	// edge or server model. Chk is empty when no client checkpointed.
	W, Chk tensor.MeanAccumulator

	lanes          []foldLane
	start32, sum32 []float32
	f32            bool
	// The Run arguments the lane workers read.
	cfg  *Config
	set  simplex.Set
	pool *ModelPool
	c    Clients
	base int
	self *Fold
	work func(lo, hi int)
}

// foldLane holds one client's buffers in the fold's storage class.
type foldLane struct {
	w, chk, sum       []float64
	w32, chk32, sum32 []float32
	chked             bool
	r                 rng.Stream
	shard             population.ShardScratch
}

// Run trains c.N clients and leaves their means in f.W and f.Chk.
func (f *Fold) Run(cfg *Config, W simplex.Set, pool *ModelPool, c Clients) {
	d := len(c.Start)
	_, native := pool.proto.(model.F32Model)
	f.f32 = native && tensor.StorageF32()
	f.cfg, f.set, f.pool, f.c = cfg, W, pool, c
	f.grow(min(foldLanes, c.N), d, c.IterSum != nil)
	f.W.Reset(d)
	f.Chk.Reset(d)
	if f.f32 {
		// Exact narrowing: engine model vectors are storage-representable.
		tensor.ToF32(f.start32, c.Start)
		if c.IterSum != nil {
			tensor.ToF32(f.sum32, c.IterSum)
		}
	}
	if f.self != f {
		// Bind the lane worker once per Fold, not once per Run (a
		// method value allocates); re-bind if the Fold was copied.
		f.self, f.work = f, f.train
	}
	for f.base = 0; f.base < c.N; f.base += len(f.lanes) {
		span := min(len(f.lanes), c.N-f.base)
		if cfg.Sequential {
			f.work(0, span)
		} else {
			tensor.ParallelFor(span, 1, f.work)
		}
		for l := range f.lanes[:span] {
			f.fold(&f.lanes[l])
		}
	}
	if f.f32 && c.IterSum != nil {
		tensor.ToF64(c.IterSum, f.sum32)
	}
	// Drop the run's references, so a pooled Fold does not keep a
	// finished run's problem and cohort alive.
	f.c = Clients{}
	f.cfg, f.set, f.pool = nil, nil, nil
}

// train runs the clients of lanes [lo, hi) of the current chunk.
func (f *Fold) train(lo, hi int) {
	cfg, c := f.cfg, &f.c
	m := f.pool.Get()
	defer f.pool.Put(m)
	s := sgdPool.Get().(*Scratch)
	defer sgdPool.Put(s)
	for l := lo; l < hi; l++ {
		ln := &f.lanes[l]
		i := f.base + l
		shard := c.Source(i, &ln.shard)
		ln.r = c.Stream(i)
		if f.f32 {
			copy(ln.w32, f.start32)
			var sum []float32
			if c.IterSum != nil {
				sum = ln.sum32
				tensor.Zero32(sum)
			}
			// Validate refuses compression on the float32 tier.
			ln.chked = LocalSGD32Scratch(m.(model.F32Model), ln.w32, shard, cfg.Tau1, cfg.BatchSize, cfg.EtaW, f.set, &ln.r, c.ChkAt, sum, ln.chk32, s)
			continue
		}
		copy(ln.w, c.Start)
		var sum []float64
		if c.IterSum != nil {
			sum = ln.sum
			tensor.Zero(sum)
		}
		ln.chked = LocalSGDScratch(m, ln.w, shard, cfg.Tau1, cfg.BatchSize, cfg.EtaW, f.set, &ln.r, c.ChkAt, sum, ln.chk, s)
		if comp := c.Compression; comp.Enabled() {
			// Clients upload compressed models; the edge folds the
			// decoded values. Checkpoint uploads are one-shot and
			// compress without error feedback.
			var resid []float64
			if c.Resid != nil {
				resid = c.Resid[i]
			}
			q := ln.r.ChildVal('q')
			comp.Apply(ln.w, resid, &q)
			if ln.chked {
				q2 := ln.r.ChildVal('q').ChildVal(2)
				comp.Apply(ln.chk, nil, &q2)
			}
		}
	}
}

// fold streams one lane's results into the accumulators.
func (f *Fold) fold(ln *foldLane) {
	if f.f32 {
		f.W.Add32(ln.w32)
		if ln.chked {
			f.Chk.Add32(ln.chk32)
		}
		if f.c.IterSum != nil {
			tensor.Axpy32(1, ln.sum32, f.sum32)
		}
		return
	}
	f.W.Add(ln.w)
	if ln.chked {
		f.Chk.Add(ln.chk)
	}
	if f.c.IterSum != nil {
		tensor.StorageAdd(f.c.IterSum, ln.sum)
	}
}

// grow sizes lanes lane buffers for d-parameter models in the fold's
// storage class.
func (f *Fold) grow(lanes, d int, track bool) {
	if cap(f.lanes) < lanes {
		f.lanes = append(f.lanes[:cap(f.lanes)], make([]foldLane, lanes-cap(f.lanes))...)
	}
	f.lanes = f.lanes[:lanes]
	if f.f32 {
		f.start32 = growVec32(f.start32, d)
		if track {
			f.sum32 = growVec32(f.sum32, d)
		}
	}
	for l := range f.lanes {
		ln := &f.lanes[l]
		if f.f32 {
			ln.w32 = growVec32(ln.w32, d)
			ln.chk32 = growVec32(ln.chk32, d)
			if track {
				ln.sum32 = growVec32(ln.sum32, d)
			}
			continue
		}
		ln.w = growVec(ln.w, d)
		ln.chk = growVec(ln.chk, d)
		if track {
			ln.sum = growVec(ln.sum, d)
		}
	}
}

func growVec(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growVec32(b []float32, n int) []float32 {
	if cap(b) < n {
		return make([]float32, n)
	}
	return b[:n]
}
