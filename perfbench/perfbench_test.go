package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fl"
	"repro/internal/tensor"
)

// declared reads the metric declarations of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func assertEmitted(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result not clean: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(want))
	}
}

// TestTinyWorkloadsEmitEveryMetric runs each workload at its tiny shape,
// plain and traced, and checks that every declared metric comes out with
// its declared unit and the result line parses back.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			o := runOpts{seed: 3, seconds: 0.01, shape: wl.tiny}
			var out bytes.Buffer
			res, err := runPlain(&out, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			assertEmitted(t, res, endToEnd)

			out.Reset()
			if err := emit(&out, newStamp(wl.name, o.seed), res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var back result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &back); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}

			out.Reset()
			dir := t.TempDir()
			traced, err := runTraced(&out, wl, o, dir)
			if err != nil {
				t.Fatal(err)
			}
			assertEmitted(t, traced, perLayer)
			if !strings.Contains(out.String(), "\nwait ") {
				t.Errorf("trace summary has no wait row:\n%s", out.String())
			}
			if _, err := os.Stat(filepath.Join(dir, wl.name+"-seed3.jsonl")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestTracedRunsStressTheirLayers pins which layers each workload runs:
// quant and the codec only on wire-q8, population and sched only on
// sweep-pop, and one cache lookup per role or job.
func TestTracedRunsStressTheirLayers(t *testing.T) {
	got := map[string]map[string]metric{}
	for _, wl := range workloads {
		res, err := runTraced(&bytes.Buffer{}, wl, runOpts{seed: 5, seconds: 0.01, shape: wl.tiny}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got[wl.name] = res.Metrics
	}
	for wl, m := range got {
		onWire, onSweep := wl == "wire-q8", wl == "sweep-pop"
		if (m["quant.share"].Value > 0) != onWire || (m["wire.codec_share"].Value > 0) != onWire {
			t.Errorf("%s: quant.share %v, wire.codec_share %v", wl, m["quant.share"].Value, m["wire.codec_share"].Value)
		}
		for _, name := range []string{"population.cohort_us", "population.shard_us", "sched.job_s_p50", "fl.cohort_loss_estimate_us"} {
			if (m[name].Value > 0) != onSweep {
				t.Errorf("%s: %s = %v", wl, name, m[name].Value)
			}
		}
		if m["data.cache_misses"].Value != 1 {
			t.Errorf("%s: %v cache misses, want 1", wl, m["data.cache_misses"].Value)
		}
	}
	// 21 role builds (a cloud, an edge server and a client host per edge
	// area): one miss and a hit for each of the rest. Five sweep jobs:
	// one hit each.
	if h := got["wire-q8"]["data.cache_hits"].Value; h != 20 {
		t.Errorf("wire-q8: %v cache hits, want 20", h)
	}
	if h := got["sweep-pop"]["data.cache_hits"].Value; h != 5 {
		t.Errorf("sweep-pop: %v cache hits, want 5", h)
	}
}

// cloneResult copies a result deeply enough to corrupt W and p.
func cloneResult(r *fl.Result) *fl.Result {
	c := *r
	c.W = append([]float64(nil), r.W...)
	c.PWeights = append([]float64(nil), r.PWeights...)
	return &c
}

// TestChecksCountCorruptedResultsAsFailed feeds every output check a
// corrupted copy of a good result and demands that it fails and that
// the failed share rises.
func TestChecksCountCorruptedResultsAsFailed(t *testing.T) {
	wl, err := lookup("resident-dense")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.setup(7, wl.tiny)
	if err != nil {
		t.Fatal(err)
	}
	good, err := inst.run()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(r *fl.Result, o *outcome)) outcome {
		o := good
		r := cloneResult(good.runs[0])
		o.runs = []*fl.Result{r}
		f(r, &o)
		return o
	}
	cases := []struct {
		name  string
		o     outcome
		floor float64
		want  error
	}{
		{"p off the simplex", corrupt(func(r *fl.Result, _ *outcome) { r.PWeights[0] += 0.5 }), 0, errOffSimplex},
		{"non-finite W", corrupt(func(r *fl.Result, _ *outcome) { r.W[0] = math.NaN() }), 0, errNonFinite},
		{"mismatched digest", corrupt(func(r *fl.Result, _ *outcome) { r.W[0] = math.Nextafter(r.W[0], 1) }), 0, errDigestMismatch},
		{"worst below floor", good, good.worst + 0.01, errBelowFloor},
		{"no runs", outcome{}, 0, errNoRuns},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tl tally
			if err := tl.record(good, nil, sample{wallS: 1, cpuS: 1}, 0); err != nil {
				t.Fatalf("good result fails: %v", err)
			}
			if tl.okShare() != 1 {
				t.Fatalf("ok share %v before corruption", tl.okShare())
			}
			err := tl.record(c.o, nil, sample{wallS: 1, cpuS: 1}, c.floor)
			if !errors.Is(err, c.want) {
				t.Fatalf("check returned %v, want %v", err, c.want)
			}
			if tl.failed != 1 || tl.okShare() != 0.5 {
				t.Fatalf("failed %d, ok share %v after one bad of two", tl.failed, tl.okShare())
			}
			res := endToEnd(tl, 1)
			if res.Correct || res.Metrics["ok_share"].Value != 0.5 {
				t.Fatalf("result %+v does not show the failure", res)
			}
		})
	}
	if err := sameModel(good.runs[0], corrupt(func(r *fl.Result, _ *outcome) { r.W[1] = -r.W[1] - 1 }).runs[0]); !errors.Is(err, errParity) {
		t.Fatalf("parity check returned %v, want %v", err, errParity)
	}
}

// TestWireRefusesFloat32Tier demands a named refusal of wire-q8 when
// the float32 storage class is forced.
func TestWireRefusesFloat32Tier(t *testing.T) {
	restore := tensor.SetKernel(tensor.KernelAVX2F32)
	defer restore()
	wl, err := lookup("wire-q8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPlain(&bytes.Buffer{}, wl, runOpts{seed: 1, seconds: 0.01, shape: wl.tiny}); !errors.Is(err, errKernelRefusesCompression) {
		t.Fatalf("wire-q8 on avx2f32 returned %v, want %v", err, errKernelRefusesCompression)
	}
}

// TestCompareRefusesDifferentStamps checks that records taken under
// different conditions are not compared.
func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {1, "s"}}}
	write := func(name string, st stamp) string {
		var b bytes.Buffer
		if err := emit(&b, st, res); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.out", newStamp("resident-dense", 1))
	if err := compareFiles(&bytes.Buffer{}, a, a); err != nil {
		t.Fatalf("comparing a record with itself: %v", err)
	}
	other := newStamp("resident-dense", 1)
	other.GOMAXPROCS++
	b := write("b.out", other)
	if err := compareFiles(&bytes.Buffer{}, a, b); !errors.Is(err, errStampMismatch) {
		t.Fatalf("compare returned %v, want %v", err, errStampMismatch)
	}
}

// TestUndisturbedTakesOutWithheldTime checks the steal correction: a
// region that used 6 CPU-seconds while 2 were withheld would have taken
// three quarters of its wall time, and nothing withheld leaves the wall
// time alone.
func TestUndisturbedTakesOutWithheldTime(t *testing.T) {
	for _, c := range []struct{ wall, cpu, stolen, want float64 }{
		{10, 6, 2, 7.5},
		{10, 6, 0, 10},
		{10, 0, 2, 10},
	} {
		if got := undisturbedS(c.wall, c.cpu, c.stolen); got != c.want {
			t.Errorf("undisturbedS(%v, %v, %v) = %v, want %v", c.wall, c.cpu, c.stolen, got, c.want)
		}
	}
}
