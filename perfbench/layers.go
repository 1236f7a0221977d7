package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/population"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// layerCalls is how many times each replayed layer operation runs per
// training round, derived from the workload's shape. Replayed per-call
// time x calls per round is the layer's share of a round.
type layerCalls struct {
	sgdSteps     float64 // local SGD steps (one tau1 block is tau1 steps)
	lossEst      float64 // ShardLossEstimate calls (Phase 2)
	cohortLoss   float64 // CohortLossEstimate calls (Phase 2, population)
	foldVecs     float64 // model vectors folded into a mean
	projW        float64 // engine-side projections of a model onto W
	projP        float64 // projections of p onto the simplex
	packs        float64 // compressed uplinks, each packed and unpacked once
	denseFrames  float64 // model-sized dense frames, each encoded and decoded once
	packedFrames float64 // model-sized Packed frames, each encoded and decoded once
	cohorts      float64 // population cohort draws
	shards       float64 // population shard materializations
	cacheHits    float64 // dataset-cache hits inside the measured region
}

// hierCalls counts one HierMinimax round with resident clients: m_E
// sampled slots, each running tau2 aggregation blocks of N0 clients.
// With wire set the round also crosses the codec and, compressed, quant.
func hierCalls(cfg fl.Config, clients int, wire bool) layerCalls {
	cfg = cfg.WithDefaults()
	mE, t1, t2, n0 := float64(cfg.SampledEdges), float64(cfg.Tau1), float64(cfg.Tau2), float64(clients)
	c := layerCalls{
		sgdSteps: mE * n0 * t1 * t2,
		lossEst:  mE * n0,
		// Client finals every block, client checkpoints once, and the
		// edges' (model, checkpoint) pair at the cloud.
		foldVecs: mE*n0*t2 + mE*n0 + 2*mE,
		projW:    mE*t2 + 1,
		projP:    1,
	}
	if wire {
		// Uplinks: a final per client per block, a checkpoint per client,
		// and the edges' pair. Downlinks: the slot request per edge, a
		// training request per client per block, and the Phase 2
		// checkpoint broadcast to the sampled edges and their clients.
		c.packedFrames = mE*n0*t2 + mE*n0 + 2*mE
		c.denseFrames = mE + mE*n0*t2 + mE + mE*n0
		if cfg.Compression.Enabled() {
			c.packs = c.packedFrames
		}
	}
	return c
}

// sweepCalls averages the per-round counts of the five population runs
// of a figure sweep (every run has the same round count).
func sweepCalls(base fl.Config, algos []experiments.AlgorithmName) layerCalls {
	var c layerCalls
	for _, a := range algos {
		cfg := configFor(base, a).WithDefaults()
		n, mE := float64(cfg.SamplePerRound), float64(cfg.SampledEdges)
		t1, t2 := float64(cfg.Tau1), float64(cfg.Tau2)
		c.sgdSteps += n * t1 * t2
		c.shards += n * t2
		c.foldVecs += n * t2
		c.projW++
		if a.Hierarchical() || a == experiments.StochasticAFL {
			c.cohorts += mE
		}
		if a.Hierarchical() {
			c.foldVecs += mE
			c.projW += mE * t2
		}
		if a.Minimax() {
			c.cohortLoss += mE
			c.foldVecs += n
			c.projP++
		}
		c.cacheHits += 1 / float64(cfg.Rounds)
	}
	k := float64(len(algos))
	for _, f := range []*float64{&c.sgdSteps, &c.lossEst, &c.cohortLoss, &c.foldVecs, &c.projW, &c.projP,
		&c.packs, &c.denseFrames, &c.packedFrames, &c.cohorts, &c.shards, &c.cacheHits} {
		*f /= k
	}
	return c
}

// replayInputs are the workload-shaped inputs the layer replays run on.
type replayInputs struct {
	prob  *fl.Problem
	cfg   fl.Config
	shard data.Subset
	// roster is set on population workloads only.
	roster population.Roster
	// lookup repeats the workload's dataset-cache request.
	lookup func()
}

func newReplayInputs(prob *fl.Problem, cfg fl.Config, lookup func()) replayInputs {
	return replayInputs{prob: prob, cfg: cfg.WithDefaults(), shard: prob.Fed.Areas[0].Clients[0], lookup: lookup}
}

// perCallUS times fn in batches of at least 2 ms and returns the median
// per-call time in microseconds.
func perCallUS(fn func()) float64 {
	fn()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Microseconds())/float64(n))
	}
	return median(per)
}

func randVec(r *rng.Stream, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = r.NormFloat64() * 0.01
	}
	return v
}

// layerTimes holds the replayed per-call times in microseconds.
type layerTimes map[string]float64

// replayCompute times the operations every workload runs: local SGD,
// the loss estimate, GEMM, the fold and both projections.
func replayCompute(in replayInputs, lt layerTimes) {
	r := rng.New(in.cfg.Seed + 7)
	prob, cfg := in.prob, in.cfg
	m := prob.Model.Clone()
	d := m.Dim()
	w := randVec(r, d)
	var s fl.Scratch
	lt["local_sgd"] = perCallUS(func() {
		fl.LocalSGDScratch(m, w, in.shard, cfg.Tau1, cfg.BatchSize, cfg.EtaW, prob.W, r, 0, nil, nil, &s)
	})
	lt["loss_estimate"] = perCallUS(func() { fl.ShardLossEstimate(m, w, in.shard, cfg.LossBatch, r, &s) })

	in0, classes := prob.Fed.InputDim, prob.Fed.NumClasses
	fill := func(rows, cols int) *tensor.Matrix { return tensor.MatrixFrom(randVec(r, rows*cols), rows, cols) }
	weights := fill(classes, in0)
	xStep, xLoss := fill(cfg.BatchSize, in0), fill(cfg.LossBatch, in0)
	zStep, zLoss := tensor.NewMatrix(cfg.BatchSize, classes), tensor.NewMatrix(cfg.LossBatch, classes)
	lt["gemm"] = perCallUS(func() { tensor.GemmT(1, xStep, weights, 0, zStep) }) +
		perCallUS(func() { tensor.GemmT(1, xLoss, weights, 0, zLoss) })

	vecs := [][]float64{randVec(r, d), randVec(r, d), randVec(r, d)}
	dst := make([]float64, d)
	var acc tensor.MeanAccumulator
	lt["fold"] = perCallUS(func() {
		acc.Reset(d)
		for _, v := range vecs {
			acc.Add(v)
		}
		acc.FinishInto(dst)
	}) / float64(len(vecs))

	nE := prob.Fed.NumAreas()
	base, p := randVec(r, nE), make([]float64, nE)
	pSet := simplex.Simplex{Dim: nE}
	lt["project_p"] = perCallUS(func() { copy(p, base); pSet.Project(p) })
	lt["project_w"] = perCallUS(func() { fl.ProjectW(prob.W, w) })

	before := mallocs()
	const calls = 200
	n := runtime.GOMAXPROCS(0) * 1024
	out := make([]float64, n)
	for i := 0; i < calls; i++ {
		tensor.ParallelFor(n, 1024, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				out[j]++
			}
		})
	}
	lt["parallel_for_allocs"] = float64(mallocs()-before) / calls
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayCodec times 8-bit pack/unpack and the codec on model-sized
// messages.
func replayCodec(in replayInputs, lt layerTimes) error {
	r := rng.New(in.cfg.Seed + 11)
	d := in.prob.Model.Dim()
	x, y := randVec(r, d), make([]float64, d)
	q := quant.Config{Bits: 8}
	packed := quant.GetPacked()
	defer quant.PutPacked(packed)
	lt["quant_pack"] = perCallUS(func() { q.Pack(packed, x, nil, r) })
	lt["quant_unpack"] = perCallUS(func() { packed.UnpackInto(y) })

	dense := wire.Message{
		From: wire.NodeID{Kind: wire.Edge}, To: wire.NodeID{Kind: wire.Client}, Kind: "train-req",
		Payload: &wire.TrainReq{W: x, Steps: in.cfg.Tau1, Batch: in.cfg.BatchSize, Eta: in.cfg.EtaW, Stream: rng.Root(1)},
	}
	pk := wire.Message{
		From: wire.NodeID{Kind: wire.Client}, To: wire.NodeID{Kind: wire.Edge}, Kind: "train-reply",
		Payload: &wire.TrainReply{WFinalP: packed},
	}
	alloc := func(n int) []float64 { return y[:n] }
	for _, c := range []struct {
		name string
		msg  wire.Message
	}{{"dense", dense}, {"packed", pk}} {
		frame, err := wire.AppendMessage(nil, c.msg)
		if err != nil {
			return fmt.Errorf("perfbench: encoding a %s frame: %w", c.name, err)
		}
		lt["encode_"+c.name] = perCallUS(func() { frame, _ = wire.AppendMessage(frame[:0], c.msg) })
		var decErr error
		lt["decode_"+c.name] = perCallUS(func() {
			m, err := wire.DecodeMessage(frame[4:], alloc, nil)
			if err != nil {
				decErr = err
				return
			}
			if rep, ok := m.Payload.(*wire.TrainReply); ok && rep.WFinalP != nil {
				quant.PutPacked(rep.WFinalP)
			}
		})
		if decErr != nil {
			return fmt.Errorf("perfbench: decoding a %s frame: %w", c.name, decErr)
		}
	}
	return nil
}

// rttEchoes is enough single-frame echoes for a p99 with ten samples
// beyond it.
const rttEchoes = 1000

// replayRTT echoes one model-sized dense frame over loopback TCP: a
// Peer sends it, the far side reads it with a FrameReader and sends it
// back through its own Peer. It returns the round-trip times in µs.
func replayRTT(in replayInputs) ([]float64, error) {
	r := rng.New(in.cfg.Seed + 13)
	frame, err := wire.AppendMessage(nil, wire.Message{
		From: wire.NodeID{Kind: wire.Edge}, To: wire.NodeID{Kind: wire.Client}, Kind: "train-req",
		Payload: &wire.TrainReq{W: randVec(r, in.prob.Model.Dim()), Stream: rng.Root(1)},
	})
	if err != nil {
		return nil, err
	}
	near, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer near.Close()
	far, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer far.Close()
	dialer := func(ln net.Listener) wire.Dialer {
		return func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }
	}
	toFar := wire.NewConnPool(dialer(far), wire.PoolConfig{})
	toNear := wire.NewConnPool(dialer(near), wire.PoolConfig{})
	out, back := wire.NewPeer(toFar, wire.PeerConfig{}), wire.NewPeer(toNear, wire.PeerConfig{})

	// serve reads frames from every connection ln accepts and hands each
	// body to onFrame, until ln closes; it returns once its readers end.
	serve := func(ln net.Listener, onFrame func([]byte)) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var conns []net.Conn
			var readers sync.WaitGroup
			for {
				c, err := ln.Accept()
				if err != nil {
					break
				}
				conns = append(conns, c)
				readers.Add(1)
				go func() {
					defer readers.Done()
					fr := wire.NewFrameReader(c, 0)
					for {
						body, err := fr.Next()
						if err != nil {
							return
						}
						onFrame(body)
					}
				}()
			}
			for _, c := range conns {
				c.Close()
			}
			readers.Wait()
		}()
		return done
	}
	got := make(chan struct{}, 1)
	farDone := serve(far, func(body []byte) {
		echo := make([]byte, 4+len(body))
		copy(echo, frame[:4])
		copy(echo[4:], body)
		back.SendRaw(echo)
	})
	nearDone := serve(near, func([]byte) { got <- struct{}{} })

	var rtts []float64
	for i := 0; i < rttEchoes; i++ {
		t0 := time.Now()
		out.SendRaw(append([]byte(nil), frame...))
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			err = fmt.Errorf("perfbench: loopback echo %d timed out", i)
		}
		if err != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	// Every echo has come back, so no frame is in flight: stop the
	// readers first, then the peers and their pools.
	near.Close()
	far.Close()
	<-farDone
	<-nearDone
	out.Close()
	back.Close()
	toFar.Close()
	toNear.Close()
	return rtts, err
}

// replayPopulation times a cohort draw and a shard materialization at
// the workload's registered population, and the cohort loss estimate.
func replayPopulation(in replayInputs, lt layerTimes) {
	ro := in.roster
	corpus := in.prob.Fed.Areas[0].Train
	var cohort []int
	k := 0
	lt["population_cohort"] = perCallUS(func() { cohort = ro.CohortInto(cohort, k, k%ro.Edges); k++ })
	var s population.ShardScratch
	id := 0
	lt["population_shard"] = perCallUS(func() { ro.ShardInto(id, corpus, &s); id += ro.Edges })
	r := rng.New(in.cfg.Seed + 17)
	m := in.prob.Model.Clone()
	w := randVec(r, m.Dim())
	lt["cohort_loss_estimate"] = perCallUS(func() {
		fl.CohortLossEstimate(m, w, corpus, ro, k, 0, in.cfg.LossBatch, r)
		k++
	})
}

// replayCache times the workload's dataset-cache request cold (after a
// reset) and warm; the warm time is the fingerprint guard's re-hash.
func replayCache(in replayInputs, lt layerTimes) {
	data.CacheReset()
	t0 := time.Now()
	in.lookup()
	lt["cache_miss_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	var hits []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		in.lookup()
		hits = append(hits, float64(time.Since(t0).Microseconds())/1e3)
	}
	lt["cache_hit_ms"] = median(hits)
}

// percentiles returns the median and p99 of xs.
func percentiles(xs []float64) (p50, p99 float64) { return median(xs), quantile(xs, 0.99) }
