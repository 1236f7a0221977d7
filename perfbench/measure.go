package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/data"
)

// minReps is the fewest repetitions a measured region holds, so the
// digest check and the medians always have something to compare.
const minReps = 3

// On a shared virtual machine the hypervisor can, at times for minutes,
// withhold CPU from the machine while it is runnable ("steal"). Such a
// region is slowed by the host, not by the code; on a shared 2-vCPU
// Xeon VM it read up to 60% slow. The wall-clock end-to-end metrics
// therefore take the withheld time out: a region that used cpu
// CPU-seconds while stolen CPU-seconds were withheld would have taken
// wall × cpu / (cpu + stolen) on an undisturbed host. Where nothing is
// withheld (bare metal, a quiet host) that is the wall time.

// clock marks the start of a timed region.
type clock struct {
	wall          time.Time
	cpuS, stolenS float64
}

func startClock() clock {
	return clock{wall: time.Now(), cpuS: cpuSeconds(), stolenS: hostStealSeconds()}
}

// stop returns the region's wall, CPU and withheld seconds.
func (c clock) stop() (wallS, cpuS, stolenS float64) {
	return time.Since(c.wall).Seconds(), cpuSeconds() - c.cpuS, hostStealSeconds() - c.stolenS
}

// undisturbedS is a region's wall time with the withheld time taken out.
func undisturbedS(wallS, cpuS, stolenS float64) float64 {
	if stolenS <= 0 || cpuS <= 0 {
		return wallS
	}
	return wallS * cpuS / (cpuS + stolenS)
}

// setupOnce builds a workload from a cold dataset cache and returns its
// undisturbed wall time in seconds.
func setupOnce(wl workload, o runOpts) (instance, float64, error) {
	runtime.GC()
	data.CacheReset()
	c := startClock()
	inst, err := wl.setup(o.seed, o.shape)
	return inst, undisturbedS(c.stop()), err
}

// setupMedian sets up shape.setups times and reports the median set-up
// time; the last instance is kept.
func setupMedian(wl workload, o runOpts) (instance, float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < max(1, o.shape.setups); i++ {
		var s float64
		var err error
		if inst, s, err = setupOnce(wl, o); err != nil {
			return nil, 0, fmt.Errorf("perfbench: %s set-up: %w", wl.name, err)
		}
		times = append(times, s)
	}
	return inst, median(times), nil
}

// repeat runs repetitions until the deadline has passed and at least
// minReps have run (or exactly n when n > 0), filing each in t. Each
// repetition starts from a collected heap returned to the OS and
// restarts the kernel's resident-set high-water mark, so its peak covers
// that repetition and the inputs it keeps alive, not garbage left over
// from set-up or earlier repetitions.
func repeat(w io.Writer, t *tally, inst instance, floor float64, deadline time.Time, n int) error {
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			return nil
		}
		if n <= 0 && i >= minReps && time.Now().After(deadline) {
			return nil
		}
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c := startClock()
		o, err := safeRun(inst)
		var s sample
		s.wallS, s.cpuS, s.stolenS = c.stop()
		runtime.ReadMemStats(&m1)
		s.mallocs, s.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		s.gcs, s.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
		var rssErr error
		if s.rssMB, rssErr = peakRSSMB(); rssErr != nil {
			return rssErr
		}
		if err := t.record(o, err, s, floor); err != nil {
			fmt.Fprintf(w, "repetition %d failed: %v\n", i, err)
			continue
		}
		fmt.Fprintf(w, "repetition %d: %.3f s wall, %.3f s cpu, %.3f s withheld, %.0f examples/s (%.0f per wall second), peak %.1f MB\n",
			i, s.wallS, s.cpuS, s.stolenS, float64(o.examples)/s.undisturbedS(), float64(o.examples)/s.wallS, s.rssMB)
	}
}

// safeRun turns a panic inside a repetition into a failed operation.
func safeRun(inst instance) (o outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("perfbench: repetition panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return inst.run()
}

// runPlain is the untraced run that yields the end-to-end metrics.
func runPlain(w io.Writer, wl workload, o runOpts) (result, error) {
	if err := wl.admit(); err != nil {
		return result{}, err
	}
	inst, setupS, err := setupMedian(wl, o)
	if err != nil {
		return result{}, err
	}
	var t tally
	if p, ok := inst.(prober); ok {
		if err := t.check(p.probe()); err != nil {
			fmt.Fprintf(w, "probe failed: %v\n", err)
		}
	}
	if err := repeat(w, &t, inst, o.shape.worstFloor, o.deadline(time.Now()), 0); err != nil {
		return result{}, err
	}
	return endToEnd(t, setupS), nil
}

// endToEnd reduces a tally to the end-to-end metrics. Rates and costs
// are medians over repetitions.
func endToEnd(t tally, setupS float64) result {
	var rate, cpu, rss []float64
	var linkPerRound, worst float64
	for _, s := range t.samples {
		rate = append(rate, float64(s.o.examples)/s.undisturbedS())
		cpu = append(cpu, s.cpuS/float64(s.o.examples)*1e6)
		rss = append(rss, s.rssMB)
		linkPerRound = float64(s.o.linkBytes()) / float64(s.o.rounds)
		worst = s.o.worst
	}
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"examples_per_s":       {median(rate), "examples/s"},
			"setup_s":              {setupS, "s"},
			"peak_rss_mb":          {median(rss), "MB"},
			"cpu_per_example_us":   {median(cpu), "us/example"},
			"link_bytes_per_round": {linkPerRound, "bytes/round"},
			"worst_acc":            {worst, "fraction"},
			"ok_share":             {t.okShare(), "fraction"},
		},
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostStealSeconds is the CPU time the hypervisor has withheld from this
// machine's virtual CPUs since boot (the steal column of /proc/stat), 0
// where the kernel does not report it.
func hostStealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	ln, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(ln)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// userHZ is the tick rate of /proc/stat's counters on Linux.
const userHZ = 100

// resetPeakRSS restarts the kernel's resident-set high-water mark.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("perfbench: cannot reset the peak RSS mark: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("perfbench: parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}
