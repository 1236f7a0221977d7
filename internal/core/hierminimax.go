// Package core implements HierMinimax (Algorithm 1 of the paper):
// hierarchical distributed minimax optimization over the
// client-edge-cloud architecture, with multi-step local SGD (tau1),
// multi-step client-edge aggregation (tau2), partial edge participation,
// and the random-checkpoint mechanism that keeps the Phase-2 weight
// gradient unbiased.
package core

import (
	"sync"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// Algorithm is the canonical name used in results and manifests.
const Algorithm = "HierMinimax"

// Cached metric handles: hot-path counters resolve the registry entry
// once per hub instead of taking a read-locked map lookup per round.
var (
	slotsTotal     = obs.NewCounterHandle("core_slots_total")
	slotsDropped   = obs.NewCounterHandle("core_slots_dropped_total")
	gradEvals      = obs.NewCounterHandle("core_grad_evals_total")
	lossEvals      = obs.NewCounterHandle("core_loss_evals_total")
	examplesPerSec = obs.NewGaugeHandle("core_examples_per_sec")
)

// HierMinimax runs Algorithm 1 on the problem and returns the trained
// result. Each round:
//
//	Phase 1: sample m_E edge slots ~ Multinomial(p^(k)) and a checkpoint
//	index (c1, c2) ~ U([tau1] x [tau2]); every sampled edge runs
//	ModelUpdate (tau2 client-edge aggregations of tau1 local SGD steps,
//	recording the (c2, c1) checkpoint); the cloud averages the edge
//	models (Eq. 5) and edge checkpoints (Eq. 6).
//
//	Phase 2: sample m_E edges uniformly; each estimates its loss on the
//	checkpoint model; the cloud builds the unbiased gradient estimate v
//	and ascends p^(k+1) = Proj_P(p^(k) + eta_p*tau1*tau2*v) (Eq. 7).
func HierMinimax(prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	return HierMinimaxWithOptions(prob, cfg, fl.RunOptions{})
}

// HierMinimaxWithOptions is HierMinimax with checkpoint/resume support:
// the run can periodically emit fl.Checkpoints and continue from one,
// reproducing the uninterrupted trajectory exactly (every round's
// randomness is a function of (Seed, round) only).
func HierMinimaxWithOptions(prob *fl.Problem, cfg fl.Config, opts fl.RunOptions) (*fl.Result, error) {
	pool := fl.NewModelPool(prob.Model)
	return fl.RunWithOptions(Algorithm, prob, cfg, func(k int, st *fl.State) {
		Round(k, st, pool)
	}, opts)
}

// slotScratch is one sampled edge slot's ModelUpdate: its outputs (the
// edge model, checkpoint and iterate sum, and how many clients it
// trained) and every buffer it used — the fold with its lane buffers
// and, in the population regime, the cohort ids. Instances recycle
// through slotPool, so after the first few rounds Phase 1 runs without
// allocating model-sized vectors, and a slot's memory is O(d) however
// many clients it trains.
type slotScratch struct {
	we, chkEdge, iterSum []float64
	n                    int
	// resid holds the per-client error-feedback residuals of top-k
	// compression, indexed by client; residual state is slot-scoped
	// (zeroed when the slot starts), matching the simnet client actors,
	// which reset theirs on each slot's first aggregation block.
	resid  [][]float64
	cohort []int
	fold   fl.Fold
}

var slotPool = sync.Pool{New: func() any { return new(slotScratch) }}

// wChkPool recycles the per-round checkpoint average of Round (the only
// model-sized vector Phase 1 would otherwise allocate each round).
var wChkPool = sync.Pool{New: func() any { return new([]float64) }}

func growVec(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// Round advances one HierMinimax training round. Exported so the simnet
// engine and the ablations can reuse the exact phase logic.
func Round(k int, st *fl.State, pool *fl.ModelPool) {
	cfg := &st.Cfg
	prob := st.Prob
	nE := prob.Fed.NumAreas()
	dBytes := topology.ModelBytes(len(st.W))
	kr := st.Root.ChildN('k', uint64(k))
	hub := obs.Get()

	p1 := obsSpan("phase1", k)

	// ---- Phase 1 ----
	// Sample edge slots by p^(k) with replacement (the unbiasedness
	// argument of Appendix A needs i.i.d. draws), and the checkpoint
	// index (c1, c2).
	slots := kr.Child(1).SampleWeighted(cfg.SampledEdges, st.P)
	cr := kr.Child(2)
	c2 := cr.Intn(cfg.Tau2)     // checkpoint aggregation block, 0-based
	c1 := 1 + cr.Intn(cfg.Tau1) // checkpoint local step within the block

	// Cloud broadcasts w^(k) and (c1, c2) to the sampled edges.
	st.Ledger.RecordRound(topology.EdgeCloud, len(slots), dBytes)

	t0 := obs.Now()
	results := make([]*slotScratch, len(slots)) // nil: the slot dropped
	cfg.ForEach(len(slots), func(i int) {
		sr := kr.ChildN(3, uint64(i))
		if fl.SlotDropped(sr, cfg.DropoutProb) {
			return
		}
		results[i] = ModelUpdate(modelUpdateArgs{
			pool: pool, prob: prob, cfg: cfg,
			wStart: st.W, area: prob.Fed.Areas[slots[i]],
			round: k, edge: slots[i],
			c1: c1, c2: c2, stream: sr, ledger: st.Ledger,
		})
	})

	// Edge-cloud aggregation (Eqs. 5 and 6): average over surviving
	// slots, in slot order for determinism.
	var wVecs, chkVecs [][]float64
	dropped := 0
	for _, s := range results {
		if s == nil {
			dropped++
			continue
		}
		wVecs = append(wVecs, s.we)
		chkVecs = append(chkVecs, s.chkEdge)
		if st.WSum != nil {
			tensor.StorageAdd(st.WSum, s.iterSum)
			st.WCount += float64(cfg.SlotsPerRound() * s.n)
		}
	}
	slotsTotal.Add(int64(len(slots)))
	slotsDropped.Add(int64(dropped))
	if hub != nil && len(wVecs) > 0 {
		if el := obs.Now().Sub(t0).Seconds(); el > 0 {
			n0 := len(prob.Fed.Areas[0].Clients)
			if cfg.PopulationEnabled() {
				n0 = cfg.CohortSize()
			}
			examples := len(wVecs) * cfg.SlotsPerRound() * n0 * cfg.BatchSize
			examplesPerSec.Set(float64(examples) / el)
		}
	}
	if len(wVecs) == 0 {
		p1.End()
		return // every sampled edge failed this round; w and p carry over
	}
	// Edges upload (w_e, chk_e) — and the iterate sum when tracking.
	// Compressed uplinks are priced at their exact wire size; the
	// iterate sum always travels dense.
	ecVec := dBytes
	if cfg.Compression.Enabled() {
		ecVec = cfg.Compression.VecWireBytes(len(st.W))
	}
	ecUp := 2 * ecVec
	if cfg.TrackAverages {
		ecUp += dBytes
	}
	st.Ledger.RecordRound(topology.EdgeCloud, len(wVecs), ecUp)
	tensor.AverageInto(st.W, wVecs...)
	tp := obs.Now()
	fl.ProjectW(prob.W, st.W)
	obs.ObserveSince("core_projection_ms", tp)
	wp := wChkPool.Get().(*[]float64)
	*wp = growVec(*wp, len(st.W))
	wChk := *wp
	defer wChkPool.Put(wp)
	tensor.AverageInto(wChk, chkVecs...)
	if cfg.CheckpointOff {
		// A1 ablation: estimate the p-gradient at the end-of-round model
		// instead of the unbiased random checkpoint.
		copy(wChk, st.W)
	}
	for _, s := range results {
		if s != nil {
			slotPool.Put(s)
		}
	}
	p1.End()

	// ---- Phase 2 ----
	p2 := obsSpan("phase2", k)
	phase2(k, st, pool, wChk, nE, dBytes, kr.Child(4))
	p2.End()
}

// obsSpan opens a per-phase span without allocating attrs when
// observability is disabled.
func obsSpan(name string, round int) obs.Span {
	if h := obs.Get(); h != nil {
		return h.Start(name, obs.Int("round", round))
	}
	return obs.Span{}
}

// phase2 performs the edge-weight update (Algorithm 1 lines 10-14). It
// is shared with DRFA-style baselines via the fl.State plumbing.
func phase2(k int, st *fl.State, pool *fl.ModelPool, wChk []float64, nE int, dBytes int64, ur *rng.Stream) {
	cfg := &st.Cfg
	prob := st.Prob
	sampled := ur.SampleUniform(cfg.SampledEdges, nE)

	// Cloud broadcasts the checkpoint model to the uniformly sampled
	// edges; they reply with scalar loss estimates.
	st.Ledger.RecordRound(topology.EdgeCloud, len(sampled), dBytes)
	losses := make([]float64, len(sampled))
	alive := make([]bool, len(sampled))
	cfg.ForEach(len(sampled), func(i int) {
		er := ur.ChildN(5, uint64(i))
		if fl.SlotDropped(er, cfg.DropoutProb) {
			return
		}
		alive[i] = true
		area := prob.Fed.Areas[sampled[i]]
		m := pool.Get()
		defer pool.Put(m)
		// Edge broadcasts the checkpoint to its clients — in the
		// population regime its round-k cohort, the clients Phase 1
		// trained — and they return mini-batch losses (client-edge
		// traffic).
		n := len(area.Clients)
		if cfg.PopulationEnabled() {
			n = cfg.Roster(nE).CohortSize(sampled[i])
		}
		st.Ledger.RecordRound(topology.ClientEdge, n, dBytes)
		if cfg.PopulationEnabled() {
			losses[i] = fl.CohortLossEstimate(m, wChk, area.Train, cfg.Roster(nE), k, sampled[i], cfg.LossBatch, er)
		} else {
			losses[i] = fl.LossEstimate(m, wChk, n, fl.AreaClients(area.Clients), cfg.LossBatch, er)
		}
		lossEvals.Add(int64(n * cfg.LossBatch))
		st.Ledger.RecordRound(topology.ClientEdge, n, 8)
	})
	st.Ledger.RecordRound(topology.EdgeCloud, len(sampled), 8)

	// Unbiased estimator: v_e = (N_E/m_E) f_e(w_chk) for sampled e.
	v := make([]float64, nE)
	scale := float64(nE) / float64(cfg.SampledEdges)
	for i, e := range sampled {
		if alive[i] {
			v[e] += scale * losses[i]
		}
	}
	// Projected gradient ascent with effective step eta_p*tau1*tau2 (Eq. 7).
	optim.AscentStep(st.P, v, cfg.EtaP*float64(cfg.SlotsPerRound()), prob.P)
	_ = k
}

// modelUpdateArgs bundles the inputs of one edge slot's ModelUpdate.
type modelUpdateArgs struct {
	pool        *fl.ModelPool
	prob        *fl.Problem
	cfg         *fl.Config
	wStart      []float64
	area        data.AreaData
	round, edge int
	c1, c2      int
	stream      *rng.Stream
	ledger      *topology.Ledger
}

// ModelUpdate runs the ModelUpdate procedure of Algorithm 1 for one
// sampled edge slot: tau2 client-edge aggregation blocks, each a
// fl.Fold of tau1 local SGD steps per client, with the (c2, c1)
// checkpoint recorded in block c2 after c1 steps. The slot's clients
// are the area's resident clients or, in the population regime, the
// roster's (round, edge) cohort; the two differ only in the fold's
// client source. The fold runs the clients on parallel lanes
// (sequentially under cfg.Sequential) and folds their results in
// client order, so the trajectory is identical in both modes and in
// every storage class.
func ModelUpdate(a modelUpdateArgs) *slotScratch {
	cfg := a.cfg
	prob := a.prob
	d := len(a.wStart)
	dBytes := topology.ModelBytes(d)
	comp := cfg.Compression
	upBytes := dBytes
	if comp.Enabled() {
		upBytes = comp.VecWireBytes(d)
	}

	s := slotPool.Get().(*slotScratch)
	s.we = growVec(s.we, d)
	s.chkEdge = growVec(s.chkEdge, d)
	s.n = len(a.area.Clients)
	src := fl.AreaClients(a.area.Clients)
	if cfg.PopulationEnabled() {
		roster := cfg.Roster(prob.Fed.NumAreas())
		s.cohort = roster.CohortInto(s.cohort, a.round, a.edge)
		s.n = len(s.cohort)
		src = fl.CohortClients(roster, s.cohort, a.area.Train)
	}
	n := s.n
	var iterSum []float64
	if cfg.TrackAverages {
		s.iterSum = growVec(s.iterSum, d)
		tensor.Zero(s.iterSum)
		iterSum = s.iterSum
	}
	var resid [][]float64
	if comp.ErrorFeedback {
		// Validate refuses error feedback with a population, so the
		// residuals index resident clients.
		for len(s.resid) < n {
			s.resid = append(s.resid, nil)
		}
		resid = s.resid[:n]
		for c := range resid {
			resid[c] = growVec(resid[c], d)
			tensor.Zero(resid[c])
		}
	}
	copy(s.we, a.wStart)

	for t2 := 0; t2 < cfg.Tau2; t2++ {
		// Edge broadcasts w_e^(k,t2) to its clients.
		a.ledger.RecordRound(topology.ClientEdge, n, dBytes)
		chkBlock := t2 == a.c2
		chkAt := 0
		if chkBlock {
			chkAt = a.c1
		}
		bs := a.stream.ChildVal(uint64(t2))
		s.fold.Run(cfg, prob.W, a.pool, fl.Clients{
			N: n, Source: src,
			Stream:  func(c int) rng.Stream { return bs.ChildVal(uint64(c)) },
			Start:   s.we,
			ChkAt:   chkAt,
			IterSum: iterSum, Compression: comp, Resid: resid,
		})
		// Clients upload their models (plus the checkpoint in block c2,
		// plus the uncompressed iterate sum when tracking averages).
		// Compressed uplinks are priced at their exact wire size.
		up := upBytes
		if chkBlock {
			up *= 2
		}
		if cfg.TrackAverages {
			up += dBytes
		}
		a.ledger.RecordRound(topology.ClientEdge, n, up)
		// Client-edge aggregation.
		s.fold.W.FinishInto(s.we)
		fl.ProjectW(prob.W, s.we)
		if chkBlock {
			s.fold.Chk.FinishInto(s.chkEdge)
		}
	}
	// Edge uploads (w_e, chk_e) to the cloud; compress if configured
	// (no error feedback: edge uplinks happen once per round).
	if comp.Enabled() {
		comp.Apply(s.we, nil, a.stream.ChildN('Q', 1))
		comp.Apply(s.chkEdge, nil, a.stream.ChildN('Q', 2))
	}
	// One SGD step evaluates BatchSize per-example gradients; the slot
	// ran tau1*tau2 steps on each of its n clients.
	gradEvals.Add(int64(cfg.Tau1 * cfg.Tau2 * n * cfg.BatchSize))
	return s
}
