package fl

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/tensor"
)

// TestLocalSGDScratchZeroAllocs pins the training hot path: once the
// scratch is warm, a full local-SGD block must not allocate at all.
func TestLocalSGDScratchZeroAllocs(t *testing.T) {
	m := model.NewLinear(4, 2)
	shard := toyShard(7, 40)
	W := simplex.FullSpace{Dim: m.Dim()}
	w := make([]float64, m.Dim())
	rng.New(1).Fill(w, 0.1)
	iterSum := make([]float64, m.Dim())
	wChk := make([]float64, m.Dim())
	r := rng.New(2)
	var s Scratch

	// Warm the scratch and the model's batched buffers.
	LocalSGDScratch(m, w, shard, 8, 4, 0.05, W, r, 3, iterSum, wChk, &s)

	allocs := testing.AllocsPerRun(100, func() {
		LocalSGDScratch(m, w, shard, 8, 4, 0.05, W, r, 3, iterSum, wChk, &s)
	})
	if allocs != 0 {
		t.Fatalf("LocalSGDScratch steady state allocates %.1f objects per run, want 0", allocs)
	}
}

// TestLocalSGD32ScratchZeroAllocs is the same pin for the native
// float32 body.
func TestLocalSGD32ScratchZeroAllocs(t *testing.T) {
	m := model.NewLinear(4, 2)
	shard := toyShard(7, 40)
	W := simplex.FullSpace{Dim: m.Dim()}
	w := make([]float32, m.Dim())
	for i := range w {
		w[i] = float32(i%5) * 0.01
	}
	iterSum := make([]float32, m.Dim())
	wChk := make([]float32, m.Dim())
	r := rng.New(2)
	var s Scratch

	LocalSGD32Scratch(m, w, shard, 8, 4, 0.05, W, r, 3, iterSum, wChk, &s)

	allocs := testing.AllocsPerRun(100, func() {
		LocalSGD32Scratch(m, w, shard, 8, 4, 0.05, W, r, 3, iterSum, wChk, &s)
	})
	if allocs != 0 {
		t.Fatalf("LocalSGD32Scratch steady state allocates %.1f objects per run, want 0", allocs)
	}
}

// foldFixture is a cohort of n clients with distinct shards, larger
// than one lane chunk so the chunked fold is exercised.
func foldFixture(n int) (shards []data.Subset, start []float64, m model.Model) {
	m = model.NewLinear(4, 2)
	shards = make([]data.Subset, n)
	for i := range shards {
		shards[i] = toyShard(uint64(100+i), 12)
	}
	start = make([]float64, m.Dim())
	rng.New(5).Fill(start, 0.1)
	tensor.Round32(start) // storage-representable on every tier
	return shards, start, m
}

// TestFoldMatchesPerClientAverage pins the slot fold's contract in every
// kernel class: its means and iterate sum are bit-for-bit AverageInto
// and StorageAdd over per-client LocalSGDScratch results in source
// order, sequentially and on parallel lanes.
func TestFoldMatchesPerClientAverage(t *testing.T) {
	const n, chkAt = 37, 2
	shards, start, m := foldFixture(n)
	W := simplex.FullSpace{Dim: m.Dim()}
	base := rng.New(9)
	stream := func(i int) rng.Stream { return base.ChildVal(uint64(i)) }
	for _, class := range tensor.Classes() {
		restore := tensor.SetKernel(class)
		cfg := Config{Tau1: 3, BatchSize: 4, EtaW: 0.1}

		finals := make([][]float64, n)
		chks := make([][]float64, n)
		wantSum := make([]float64, m.Dim())
		var s Scratch
		for i := range finals {
			finals[i] = append([]float64(nil), start...)
			chks[i] = make([]float64, m.Dim())
			sum := make([]float64, m.Dim())
			r := stream(i)
			if !LocalSGDScratch(m, finals[i], shards[i], cfg.Tau1, cfg.BatchSize, cfg.EtaW, W, &r, chkAt, sum, chks[i], &s) {
				t.Fatalf("%s: client %d took no checkpoint", class, i)
			}
			tensor.StorageAdd(wantSum, sum)
		}
		wantW := make([]float64, m.Dim())
		tensor.AverageInto(wantW, finals...)
		wantChk := make([]float64, m.Dim())
		tensor.AverageInto(wantChk, chks...)

		for _, seq := range []bool{true, false} {
			cfg.Sequential = seq
			var f Fold
			gotSum := make([]float64, m.Dim())
			f.Run(&cfg, W, NewModelPool(m), Clients{N: n, Source: AreaClients(shards), Stream: stream, Start: start, ChkAt: chkAt, IterSum: gotSum})
			if f.W.Count() != n || f.Chk.Count() != n {
				t.Fatalf("%s seq=%v: folded %d models, %d checkpoints", class, seq, f.W.Count(), f.Chk.Count())
			}
			gotW := make([]float64, m.Dim())
			f.W.FinishInto(gotW)
			gotChk := make([]float64, m.Dim())
			f.Chk.FinishInto(gotChk)
			for j := range wantW {
				if math.Float64bits(gotW[j]) != math.Float64bits(wantW[j]) ||
					math.Float64bits(gotChk[j]) != math.Float64bits(wantChk[j]) ||
					math.Float64bits(gotSum[j]) != math.Float64bits(wantSum[j]) {
					t.Fatalf("%s seq=%v: fold differs from the per-client reference at %d", class, seq, j)
				}
			}
		}
		restore()
	}
}

// TestForEachWorkerPool checks the bounded pool: every index runs exactly
// once and observed concurrency never exceeds Workers.
func TestForEachWorkerPool(t *testing.T) {
	const n = 64
	for _, workers := range []int{0, 1, 2, 3, n + 10} {
		cfg := Config{Workers: workers}
		var hits [n]atomic.Int32
		var cur, peak atomic.Int32
		cfg.ForEach(n, func(i int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			hits[i].Add(1)
			cur.Add(-1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
		if workers > 0 && int(peak.Load()) > workers {
			t.Fatalf("workers=%d: observed concurrency %d", workers, peak.Load())
		}
	}
}

// TestForEachSequentialIgnoresWorkers: Sequential mode must run in index
// order on the calling goroutine regardless of Workers.
func TestForEachSequentialIgnoresWorkers(t *testing.T) {
	cfg := Config{Sequential: true, Workers: 8}
	var order []int
	cfg.ForEach(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order %v", order)
		}
	}
}
