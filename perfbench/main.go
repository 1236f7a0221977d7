// Command perfbench is the repository benchmark. It runs one named
// workload (resident-dense, wire-q8 or sweep-pop) against the layer
// packages, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of standard
// output:
//
//	perfbench --workload wire-q8 --seed 3 --seconds 20 --trace 0
//
// Two subcommands read what earlier runs left behind:
//
//	perfbench summarize <trace.jsonl>...  per-layer table of a traced run
//	perfbench compare <a.out> <b.out>     metric ratios b/a; refuses
//	                                      records whose stamps differ
//
// The workloads and their metrics are declared in BENCHMARK.json at the
// repository root; workloads.go says what each one stresses.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/tensor"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "summarize":
			if err := summarizeFiles(os.Stdout, os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "compare":
			if len(os.Args) != 4 {
				fatal(errors.New("usage: perfbench compare <a.out> <b.out>"))
			}
			if err := compareFiles(os.Stdout, os.Args[2], os.Args[3]); err != nil {
				fatal(err)
			}
			return
		}
	}
	name := flag.String("workload", "", "workload to run: resident-dense, wire-q8 or sweep-pop")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured region in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()

	wl, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("perfbench: --trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("perfbench: --seconds must be positive, got %g", *seconds))
	}
	opts := runOpts{seed: *seed, seconds: *seconds, shape: wl.full}
	var res result
	if *trace == 1 {
		res, err = runTraced(os.Stdout, wl, opts, traceDir)
	} else {
		res, err = runPlain(os.Stdout, wl, opts)
	}
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, newStamp(wl.name, *seed), res); err != nil {
		fatal(err)
	}
}

// traceDir is where a traced run writes its spans, under the build
// directory that run.sh keeps out of the repository.
var traceDir = filepath.Join(".bench_build", "traces")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line: Correct is false when any
// attempted operation failed (an error, a panic or a failed output
// check).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records what a result depends on besides the code under test.
// Results are comparable only when their stamps are equal.
type stamp struct {
	Workload       string `json:"workload"`
	Seed           uint64 `json:"seed"`
	CPUModel       string `json:"cpu_model"`
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	KernelActive   string `json:"kernel_active"`
	KernelDetected string `json:"kernel_detected"`
	GoVersion      string `json:"go_version"`
	GOAMD64        string `json:"goamd64"`
}

func newStamp(workload string, seed uint64) stamp {
	return stamp{
		Workload:       workload,
		Seed:           seed,
		CPUModel:       cpuModel(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		KernelActive:   tensor.ActiveKernel().String(),
		KernelDetected: tensor.DetectedKernel().String(),
		GoVersion:      runtime.Version(),
		GOAMD64:        buildSetting("GOAMD64"),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func buildSetting(key string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == key {
				return s.Value
			}
		}
	}
	return "none"
}

// emit prints the stamp line, one human-readable line per metric, and
// the result object as the last line.
func emit(w io.Writer, st stamp, res result) error {
	sb, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", sb)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rb)
	return err
}

// record is one saved benchmark output: its stamp and its result.
type record struct {
	stamp  stamp
	result result
}

func readRecord(path string) (record, error) {
	f, err := os.Open(path)
	if err != nil {
		return record{}, err
	}
	defer f.Close()
	var rec record
	var haveStamp, haveResult bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ln := sc.Bytes()
		var s struct {
			Stamp *stamp `json:"stamp"`
		}
		if json.Unmarshal(ln, &s) == nil && s.Stamp != nil {
			rec.stamp, haveStamp = *s.Stamp, true
			continue
		}
		var r result
		if json.Unmarshal(ln, &r) == nil && r.Metrics != nil {
			rec.result, haveResult = r, true
		}
	}
	if err := sc.Err(); err != nil {
		return record{}, fmt.Errorf("perfbench: reading %s: %w", path, err)
	}
	if !haveStamp || !haveResult {
		return record{}, fmt.Errorf("perfbench: %s holds no stamped result", path)
	}
	return rec, nil
}

// errStampMismatch refuses a comparison of records taken under
// different conditions.
var errStampMismatch = errors.New("perfbench: records are not comparable: stamps differ")

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	if a.stamp != b.stamp {
		return fmt.Errorf("%w:\n  %+v\n  %+v", errStampMismatch, a.stamp, b.stamp)
	}
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, name := range sortedKeys(a.result.Metrics) {
		ma := a.result.Metrics[name]
		mb, ok := b.result.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14.6g %14s %8s\n", name, ma.Value, "missing", "")
			continue
		}
		ratio := "n/a"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %8s %s\n", name, ma.Value, mb.Value, ratio, ma.Unit)
	}
	return nil
}

// runOpts are the per-invocation knobs.
type runOpts struct {
	seed    uint64
	seconds float64
	shape   shape
}

func (o runOpts) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.seconds * float64(time.Second)))
}
