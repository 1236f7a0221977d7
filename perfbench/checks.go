package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/fl"
	"repro/internal/simplex"
	"repro/internal/tensor"
)

// Output checks. A repetition that fails one counts as a failed
// operation, so a wrong-but-fast run cannot pass as a speed-up.
var (
	errNoRuns         = errors.New("perfbench: repetition produced no runs")
	errNonFinite      = errors.New("perfbench: final model W has a non-finite entry")
	errOffSimplex     = errors.New("perfbench: edge weights p are off the simplex")
	errBadAccuracy    = errors.New("perfbench: final accuracy is not a finite fraction")
	errBelowFloor     = errors.New("perfbench: worst-area accuracy is below the workload floor")
	errDigestMismatch = errors.New("perfbench: final-model digest differs from the first repetition of this seed")
)

// simplexTol is the membership tolerance for p; projections land on the
// simplex up to rounding.
const simplexTol = 1e-9

// checkOutcome applies every per-repetition output check.
func checkOutcome(o outcome, floor float64) error {
	if len(o.runs) == 0 {
		return errNoRuns
	}
	for _, r := range o.runs {
		if !tensor.AllFinite(r.W) {
			return fmt.Errorf("%w (%s)", errNonFinite, r.Algorithm)
		}
		if !(simplex.Simplex{Dim: len(r.PWeights)}).Contains(r.PWeights, simplexTol) {
			return fmt.Errorf("%w (%s: %v)", errOffSimplex, r.Algorithm, r.PWeights)
		}
		f := r.History.Final().Fair
		for _, a := range []float64{f.Average, f.Worst} {
			if math.IsNaN(a) || a < 0 || a > 1 {
				return fmt.Errorf("%w (%s: %g)", errBadAccuracy, r.Algorithm, a)
			}
		}
	}
	if !(o.worst >= floor) {
		return fmt.Errorf("%w (%g < %g)", errBelowFloor, o.worst, floor)
	}
	return nil
}

// digest hashes every run's final model and final accuracies bit for
// bit. The edge weights p are checked for simplex membership but left
// out: on the simnet and wire engines their last bits can differ from
// run to run of one seed while W stays bitwise equal.
func digest(o outcome) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range o.runs {
		for _, v := range r.W {
			put(v)
		}
		f := r.History.Final().Fair
		put(f.Average)
		put(f.Worst)
	}
	return h.Sum64()
}

// sameModel demands bitwise-equal final models.
func sameModel(want, got *fl.Result) error {
	if len(want.W) != len(got.W) {
		return errParity
	}
	for i := range want.W {
		if math.Float64bits(want.W[i]) != math.Float64bits(got.W[i]) {
			return errParity
		}
	}
	return nil
}

// tally counts attempted and failed operations and keeps the
// measurements of the ones that passed.
type tally struct {
	attempted, failed int
	samples           []sample
	ref               uint64 // digest of the first passing repetition
	haveRef           bool
}

// sample is one passing repetition: its wall, CPU and withheld seconds,
// its resident-set peak, its Go heap activity and what it produced.
type sample struct {
	wallS, cpuS, stolenS float64
	rssMB                float64
	mallocs, allocBytes  uint64
	gcs                  uint32
	gcPauseNs            uint64
	o                    outcome
}

func (s sample) undisturbedS() float64 { return undisturbedS(s.wallS, s.cpuS, s.stolenS) }

// record checks one finished repetition and files it.
func (t *tally) record(o outcome, err error, s sample, floor float64) error {
	t.attempted++
	if err == nil {
		err = checkOutcome(o, floor)
	}
	if err == nil {
		d := digest(o)
		switch {
		case !t.haveRef:
			t.ref, t.haveRef = d, true
		case d != t.ref:
			err = errDigestMismatch
		}
	}
	if err != nil {
		t.failed++
		return err
	}
	s.o = o
	t.samples = append(t.samples, s)
	return nil
}

// check files a once-per-invocation check (the wire parity probe) as
// one operation.
func (t *tally) check(err error) error {
	t.attempted++
	if err != nil {
		t.failed++
	}
	return err
}

func (t *tally) okShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}
