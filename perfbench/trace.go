package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
)

// runTraced measures the per-layer metrics of one workload. It runs the
// workload untraced, then the same number of repetitions with an obs
// hub whose tracer writes to memory (collecting the program's round,
// eval and sweep-job spans, its counters, and the benchmark's own spans
// around its calls into the layers), then replays each layer's exported
// functions at the workload's shapes. The spans and the per-layer rows
// are written to dir when the run ends and summarized to w.
func runTraced(w io.Writer, wl workload, o runOpts, dir string) (result, error) {
	if err := wl.admit(); err != nil {
		return result{}, err
	}
	half := o
	half.seconds /= 2
	inst, _, err := setupOnce(wl, o)
	if err != nil {
		return result{}, fmt.Errorf("perfbench: %s set-up: %w", wl.name, err)
	}
	var plain tally
	if err := repeat(w, &plain, inst, o.shape.worstFloor, half.deadline(time.Now()), 0); err != nil {
		return result{}, err
	}
	inst = nil

	var buf bytes.Buffer
	hub := obs.New()
	tr := obs.NewTracer(&buf)
	hub.SetTracer(tr)
	prev := obs.SetGlobal(hub)
	restore := func() { obs.SetGlobal(prev) }
	defer restore()

	runtime.GC()
	data.CacheReset()
	sp := hub.Start("bench.setup")
	inst, err = wl.setup(o.seed, o.shape)
	sp.End()
	if err != nil {
		return result{}, fmt.Errorf("perfbench: %s traced set-up: %w", wl.name, err)
	}
	setupHits, setupMisses := data.CacheStats()

	var traced tally
	if err := repeat(w, &traced, inst, o.shape.worstFloor, time.Time{}, plain.attempted); err != nil {
		return result{}, err
	}
	hits, misses := data.CacheStats()
	reg := hub.Registry()
	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	restore()

	in := inst.replayInputs()
	lt := layerTimes{}
	replayCompute(in, lt)
	calls := inst.calls()
	var rtts []float64
	if calls.packedFrames > 0 {
		if err := replayCodec(in, lt); err != nil {
			return result{}, err
		}
		if rtts, err = replayRTT(in); err != nil {
			return result{}, err
		}
	}
	if in.roster.Size > 0 {
		replayPopulation(in, lt)
	}
	replayCache(in, lt)

	spans, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return result{}, fmt.Errorf("perfbench: reading the in-memory trace: %w", err)
	}

	reps := float64(len(traced.samples))
	var rounds, wallS, cpuS float64
	var stats struct{ msgs, recycled, allocated float64 }
	var heap struct{ mallocs, bytes, gcs, pauseNs float64 }
	for _, s := range traced.samples {
		rounds += float64(s.o.rounds)
		wallS += s.wallS
		cpuS += s.cpuS
		stats.msgs += float64(s.o.stats.MessagesSent)
		stats.recycled += float64(s.o.stats.PoolRecycled)
		stats.allocated += float64(s.o.stats.PoolAllocated)
		heap.mallocs += float64(s.mallocs)
		heap.bytes += float64(s.allocBytes)
		heap.gcs += float64(s.gcs)
		heap.pauseNs += float64(s.gcPauseNs)
	}
	if rounds == 0 {
		return result{}, fmt.Errorf("perfbench: %s: no traced repetition passed its checks", wl.name)
	}
	durs := spanDurations(spans)
	// The round budget is the worker capacity one round holds: its wall
	// time on every one of GOMAXPROCS workers (the sweep pool has as
	// many). Shares are of that capacity, so idle workers land in wait.
	workers := float64(runtime.GOMAXPROCS(0))
	budgetMS := workers * wallS * 1e3 / rounds

	layers := layerRows(lt, calls, budgetMS, float64(in.cfg.Tau1), sum(durs["eval"])/rounds)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	share := func(name string) float64 {
		for _, l := range layers {
			if l.name == name {
				return l.share
			}
		}
		return 0
	}
	named := 0.0
	for _, l := range layers {
		named += l.share
	}

	put("tensor.gemm_us", "us", lt["gemm"])
	put("tensor.fold_us", "us", lt["fold"])
	put("tensor.parallel_for_allocs", "allocs/call", lt["parallel_for_allocs"])
	put("tensor.gemm_flops_per_round", "flop/round", counter("tensor_gemm_flops_total")/rounds)
	put("fl.local_sgd_us", "us", lt["local_sgd"])
	put("fl.local_sgd_share", "fraction", share("fl.local_sgd"))
	put("fl.loss_estimate_us", "us", lt["loss_estimate"])
	put("fl.cohort_loss_estimate_us", "us", lt["cohort_loss_estimate"])
	put("fl.eval_ms", "ms", mean(durs["eval"]))
	put("fl.eval_share", "fraction", share("fl.eval"))
	put("simplex.project_p_us", "us", lt["project_p"])
	put("simplex.project_w_us", "us", lt["project_w"])
	p50, p99 := percentiles(durs["round"])
	put("core.round_ms_p50", "ms", p50)
	put("core.round_ms_p99", "ms", p99)
	put("core.round_samples", "count", float64(len(durs["round"])))
	put("core.wait_share", "fraction", 1-named)
	put("quant.pack_us", "us", lt["quant_pack"])
	put("quant.unpack_us", "us", lt["quant_unpack"])
	put("quant.share", "fraction", share("quant"))
	put("wire.encode_dense_us", "us", lt["encode_dense"])
	put("wire.decode_dense_us", "us", lt["decode_dense"])
	put("wire.encode_packed_us", "us", lt["encode_packed"])
	put("wire.decode_packed_us", "us", lt["decode_packed"])
	put("wire.codec_share", "fraction", share("wire.codec"))
	rtt50, rtt99 := percentiles(rtts)
	put("wire.rtt_us_p50", "us", rtt50)
	put("wire.rtt_us_p99", "us", rtt99)
	put("wire.frames_per_round", "frames/round", counter("wire_frames_sent_total")/rounds)
	put("wire.bytes_per_round", "bytes/round", counter("wire_bytes_sent_total")/rounds)
	put("wire.send_queue_peak", "frames", reg.Gauge("wire_send_queue_peak").Value())
	put("wire.startup_ms", "ms", startupMS(spans))
	busy := 0.0
	if calls.packedFrames > 0 {
		busy = cpuS / (wallS * workers)
	}
	put("wire.cpu_busy_share", "fraction", busy)
	put("simnet.messages_per_round", "messages/round", stats.msgs/rounds)
	recycle := 0.0
	if stats.recycled+stats.allocated > 0 {
		recycle = stats.recycled / (stats.recycled + stats.allocated)
	}
	put("simnet.pool_recycle_ratio", "fraction", recycle)
	put("data.cache_miss_ms", "ms", lt["cache_miss_ms"])
	put("data.cache_hit_ms", "ms", lt["cache_hit_ms"])
	// One set-up plus one repetition: the hits a user pays per run.
	put("data.cache_hits", "count", float64(setupHits)+float64(hits-setupHits)/reps)
	put("data.cache_misses", "count", float64(setupMisses)+float64(misses-setupMisses)/reps)
	put("population.cohort_us", "us", lt["population_cohort"])
	put("population.shard_us", "us", lt["population_shard"])
	jobs := durs["sweep-job"]
	idle := 0.0
	if len(jobs) > 0 {
		idle = 1 - sum(jobs)/(float64(runtime.NumCPU())*wallS*1e3)
	}
	put("sched.job_s_p50", "s", median(jobs)/1e3)
	put("sched.job_s_max", "s", maxOf(jobs)/1e3)
	put("sched.idle_share", "fraction", idle)
	put("go.allocs_per_round", "allocs/round", heap.mallocs/rounds)
	put("go.bytes_alloc_per_round", "bytes/round", heap.bytes/rounds)
	put("go.gc_cycles", "cycles/rep", heap.gcs/reps)
	put("go.gc_pause_ms", "ms/rep", heap.pauseNs/1e6/reps)
	untraced := median(undisturbedOf(plain))
	put("obs.trace_overhead_share", "fraction", (median(undisturbedOf(traced))-untraced)/untraced)

	tr.Event("run", obs.Str("workload", wl.name), obs.I64("seed", int64(o.seed)),
		obs.F64("rounds", rounds), obs.F64("budget_ms_per_round", budgetMS))
	for _, l := range layers {
		tr.Event("layer", obs.Str("layer", l.name), obs.F64("calls_per_round", l.calls),
			obs.F64("per_call_us", l.perCallUS), obs.F64("share", l.share))
	}
	for _, name := range sortedKeys(m) {
		tr.Event("metric", obs.Str("metric", name), obs.F64("value", m[name].Value), obs.Str("unit", m[name].Unit))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, o.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if err := summarizeFiles(w, []string{path}); err != nil {
		return result{}, err
	}

	t := traced
	t.attempted += plain.attempted
	t.failed += plain.failed
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// startupMS is the mean time from a loopback run's start to its first
// round: listening, dialing, the fingerprint handshake and the round-0
// evaluation. It stays inside the measured region, because no signal
// outside a traced run marks its end.
func startupMS(lines []obs.TraceLine) float64 {
	var firsts []float64
	for _, run := range lines {
		if run.Type != "span" || run.Name != "bench.simnet.RunWireLoopback" {
			continue
		}
		first := int64(-1)
		for _, r := range lines {
			if r.Type == "span" && r.Name == "round" && r.TUs >= run.TUs && r.TUs <= run.TUs+run.DurUs &&
				(first < 0 || r.TUs < first) {
				first = r.TUs
			}
		}
		if first >= 0 {
			firsts = append(firsts, float64(first-run.TUs)/1e3)
		}
	}
	return mean(firsts)
}

// layerRow is one named layer's part of a round.
type layerRow struct {
	name      string
	calls     float64 // per round
	perCallUS float64
	share     float64 // of the round budget
}

// layerRows turns replayed per-call times and per-round call counts into
// shares of the round budget. Layers a workload does not run get no row.
// blockSteps is the length of the replayed local SGD block.
func layerRows(lt layerTimes, c layerCalls, budgetMS, blockSteps, evalMSPerRound float64) []layerRow {
	rows := []layerRow{
		{name: "fl.local_sgd", calls: c.sgdSteps / blockSteps, perCallUS: lt["local_sgd"]},
		{name: "fl.loss_estimate", calls: c.lossEst, perCallUS: lt["loss_estimate"]},
		{name: "fl.cohort_loss_estimate", calls: c.cohortLoss, perCallUS: lt["cohort_loss_estimate"]},
		{name: "tensor.fold", calls: c.foldVecs, perCallUS: lt["fold"]},
		{name: "simplex.project_w", calls: c.projW, perCallUS: lt["project_w"]},
		{name: "simplex.project_p", calls: c.projP, perCallUS: lt["project_p"]},
		{name: "quant", calls: c.packs, perCallUS: lt["quant_pack"] + lt["quant_unpack"]},
		{name: "wire.codec", calls: c.denseFrames + c.packedFrames,
			perCallUS: weighted(c.denseFrames, lt["encode_dense"]+lt["decode_dense"], c.packedFrames, lt["encode_packed"]+lt["decode_packed"])},
		{name: "population", calls: c.cohorts + c.shards,
			perCallUS: weighted(c.cohorts, lt["population_cohort"], c.shards, lt["population_shard"])},
		{name: "data.cache_hit", calls: c.cacheHits, perCallUS: lt["cache_hit_ms"] * 1e3},
		{name: "fl.eval", calls: 1, perCallUS: evalMSPerRound * 1e3},
	}
	out := rows[:0]
	for _, r := range rows {
		if r.calls > 0 && r.perCallUS > 0 {
			r.share = r.calls * r.perCallUS / 1e3 / budgetMS
			out = append(out, r)
		}
	}
	return out
}

// weighted is the call-weighted mean per-call time of two operations.
func weighted(n1, t1, n2, t2 float64) float64 {
	if n1+n2 == 0 {
		return 0
	}
	return (n1*t1 + n2*t2) / (n1 + n2)
}

// spanDurations groups span durations (ms) by name.
func spanDurations(lines []obs.TraceLine) map[string][]float64 {
	d := map[string][]float64{}
	for _, l := range lines {
		if l.Type == "span" {
			d[l.Name] = append(d[l.Name], float64(l.DurUs)/1e3)
		}
	}
	return d
}

func undisturbedOf(t tally) []float64 {
	var w []float64
	for _, s := range t.samples {
		w = append(w, s.undisturbedS())
	}
	return w
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// spanParents names, for each span, the spans it runs inside. Self time
// is a span's duration minus the part of it that child spans cover.
var spanParents = map[string][]string{
	"bench.build-problem": {"bench.setup", "sweep-job"},
	"round":               {"bench.core.HierMinimax", "bench.simnet.RunWireLoopback", "sweep-job"},
	"eval":                {"bench.core.HierMinimax", "bench.simnet.RunWireLoopback", "sweep-job"},
	"sweep-job":           {"bench.sched.Map"},
	"phase1":              {"round"},
	"phase2":              {"round"},
}

type interval struct{ lo, hi int64 }

// summarizeFiles prints, per traced run, the span table (calls, total
// and self time, share of the round budget), the per-layer table with
// the unattributed wait remainder, and the tracing overhead.
func summarizeFiles(w io.Writer, paths []string) error {
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		lines, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("perfbench: reading %s: %w", path, err)
		}
		summarize(w, path, lines)
	}
	return nil
}

func summarize(w io.Writer, path string, lines []obs.TraceLine) {
	num := func(l obs.TraceLine, k string) float64 {
		v, _ := l.Attrs[k].(float64)
		return v
	}
	str := func(l obs.TraceLine, k string) string {
		v, _ := l.Attrs[k].(string)
		return v
	}
	var workload string
	var rounds, budgetMS float64
	spans := map[string][]interval{}
	var names []string
	for _, l := range lines {
		switch {
		case l.Type == "span":
			if _, ok := spans[l.Name]; !ok {
				names = append(names, l.Name)
			}
			spans[l.Name] = append(spans[l.Name], interval{l.TUs, l.TUs + l.DurUs})
		case l.Name == "run":
			workload, rounds, budgetMS = str(l, "workload"), num(l, "rounds"), num(l, "budget_ms_per_round")
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s (%s): %.0f traced rounds, %.4g worker-ms per round\n", workload, path, rounds, budgetMS)
	fmt.Fprintf(w, "%-32s %8s %12s %12s %10s\n", "span", "calls", "total_ms", "self_ms", "share")
	for _, name := range names {
		own := spans[name]
		var children []interval
		for child, parents := range spanParents {
			for _, p := range parents {
				if p == name {
					children = append(children, spans[child]...)
				}
			}
		}
		total, self := 0.0, 0.0
		for _, iv := range own {
			d := float64(iv.hi-iv.lo) / 1e3
			total += d
			self += d - covered(iv, children)/1e3
		}
		share := 0.0
		if rounds > 0 && budgetMS > 0 {
			share = total / (rounds * budgetMS)
		}
		fmt.Fprintf(w, "%-32s %8d %12.2f %12.2f %10.4f\n", name, len(own), total, self, share)
	}
	fmt.Fprintf(w, "%-32s %14s %12s %10s\n", "layer", "calls/round", "per_call_us", "share")
	named := 0.0
	for _, l := range lines {
		if l.Name == "layer" {
			named += num(l, "share")
			fmt.Fprintf(w, "%-32s %14.2f %12.2f %10.4f\n", str(l, "layer"), num(l, "calls_per_round"), num(l, "per_call_us"), num(l, "share"))
		}
	}
	fmt.Fprintf(w, "%-32s %14s %12s %10.4f\n", "wait", "", "", 1-named)
	for _, l := range lines {
		if l.Name == "metric" && str(l, "metric") == "obs.trace_overhead_share" {
			fmt.Fprintf(w, "obs.trace_overhead_share %.4f\n", num(l, "value"))
		}
	}
}

// covered is the length of iv covered by the union of the children that
// lie inside it.
func covered(iv interval, children []interval) float64 {
	var in []interval
	for _, c := range children {
		if c.lo >= iv.lo && c.hi <= iv.hi {
			in = append(in, c)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	total, end := int64(0), iv.lo
	for _, c := range in {
		lo := max(c.lo, end)
		if c.hi > lo {
			total += c.hi - lo
			end = c.hi
		}
	}
	return float64(total)
}
