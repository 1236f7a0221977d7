package tensor

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	const n = 10007
	var hits [n]int32
	ParallelFor(n, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	ParallelFor(0, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ParallelFor called fn for n=0")
	}
	ParallelFor(-3, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ParallelFor called fn for n<0")
	}
}

func TestParallelForSmallN(t *testing.T) {
	var count int32
	ParallelFor(1, 100, func(lo, hi int) {
		atomic.AddInt32(&count, int32(hi-lo))
	})
	if count != 1 {
		t.Fatalf("n=1 visited %d indices", count)
	}
}

func TestAverageInto(t *testing.T) {
	dst := make([]float64, 2)
	AverageInto(dst, []float64{1, 2}, []float64{3, 4}, []float64{5, 6})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("AverageInto = %v", dst)
	}
}

func TestWeightedAverageInto(t *testing.T) {
	dst := make([]float64, 2)
	WeightedAverageInto(dst, []float64{0.25, 0.75}, [][]float64{{4, 0}, {0, 4}})
	if dst[0] != 1 || dst[1] != 3 {
		t.Fatalf("WeightedAverageInto = %v", dst)
	}
}

func TestWeightedAverageIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on count mismatch")
		}
	}()
	WeightedAverageInto(make([]float64, 2), []float64{1}, [][]float64{{1, 2}, {3, 4}})
}
