package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"

	hierfair "repro"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/quant"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Why each workload exists (BENCHMARK.json carries the one-line form):
//
//   - resident-dense is the paper's §6.1 convex spec in the in-process
//     core engine with dense uplinks. Local SGD, the GEMM kernels, the
//     fold, the simplex projections, Phase 2 and eval do all the work;
//     no socket, codec, quant, sched or population code runs and the
//     dataset cache takes one miss, in setup. It exercises kernel and
//     slot-protocol changes and bypasses communication-path and
//     cache-guard changes.
//   - wire-q8 is the same spec with 8-bit uplinks split over a cloud,
//     per-edge server and per-edge client-host runtimes on loopback TCP
//     (simnet.RunWireLoopback, the in-process twin of the multi-process
//     layout). quant pack/unpack, the wire codec (Packed uplinks and
//     dense broadcasts in one run), the sockets and the simnet actors
//     dominate; every role build goes through the dataset cache, so the
//     cache guard lands in setup_s.
//   - sweep-pop is the Fig. 3 five-algorithm comparison on a sched pool
//     of nproc workers with a 1,000,000-registered / 50-sampled
//     population. Only it runs sched, population cohorts and shards,
//     the streaming fold, the cohort loss estimate and the baselines;
//     every job takes a dataset-cache hit inside the measured region,
//     as users pay on every job, and unequal jobs expose the pool tail.

// shape sizes one workload. Each workload has a full shape (the
// benchmark) and a tiny one (the benchmark's own tests).
type shape struct {
	rounds, evalEvery int
	// Corpus of the resident-dense and wire-q8 spec.
	dim, trainPerClass, testPerClass int
	// sweep-pop: the experiments scale that sizes the corpus, and the
	// registered population with its per-round sample.
	scale                      experiments.Scale
	population, samplePerRound int
	// probeRounds is the length of the wire-q8 parity probe.
	probeRounds int
	// worstFloor is the lowest acceptable final worst-area accuracy.
	worstFloor float64
	// setups is how many times a plain run sets up; setup_s is their
	// median.
	setups int
}

// instance is one workload set up from a seed: its inputs are built and
// each run call repeats the same fixed amount of work.
type instance interface {
	run() (outcome, error)
	// calls is the per-round call count of each replayed layer
	// operation, from the workload's shape.
	calls() layerCalls
	// replayInputs returns the inputs the layer replays run on.
	replayInputs() replayInputs
}

// prober is an instance with a once-per-invocation check outside the
// measured region.
type prober interface {
	probe() error
}

type workload struct {
	name       string
	full, tiny shape
	// admit refuses, with a named error, a configuration the workload
	// cannot run.
	admit func() error
	setup func(seed uint64, sh shape) (instance, error)
}

var workloads = []workload{
	{
		name:  "resident-dense",
		full:  shape{rounds: 1000, evalEvery: 100, dim: 784, trainPerClass: 2000, testPerClass: 150, worstFloor: 0.5, setups: 3},
		tiny:  shape{rounds: 6, evalEvery: 3, dim: 16, trainPerClass: 40, testPerClass: 10, setups: 2},
		admit: func() error { return nil },
		setup: setupResident,
	},
	{
		name:  "wire-q8",
		full:  shape{rounds: 500, evalEvery: 100, dim: 784, trainPerClass: 2000, testPerClass: 150, probeRounds: 3, worstFloor: 0.5, setups: 3},
		tiny:  shape{rounds: 4, evalEvery: 2, dim: 16, trainPerClass: 40, testPerClass: 10, probeRounds: 2, setups: 2},
		admit: admitCompression,
		setup: setupWire,
	},
	{
		name:  "sweep-pop",
		full:  shape{rounds: 400, evalEvery: 50, scale: experiments.Small, population: 1_000_000, samplePerRound: 50, worstFloor: 0.5, setups: 3},
		tiny:  shape{rounds: 4, evalEvery: 2, scale: experiments.Smoke, population: 1000, samplePerRound: 10, setups: 2},
		admit: func() error { return nil },
		setup: setupSweep,
	},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("perfbench: unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// errKernelRefusesCompression names the refusal of wire-q8 on the
// float32 storage tier, which refuses compressed uplinks.
var errKernelRefusesCompression = errors.New("perfbench: wire-q8 needs a float64 kernel class")

func admitCompression() error {
	if tensor.StorageF32() {
		return fmt.Errorf("%w: HIERFAIR_KERNEL selects %s, whose float32 storage tier refuses compressed uplinks", errKernelRefusesCompression, tensor.ActiveKernel())
	}
	return nil
}

// outcome is what one repetition produced.
type outcome struct {
	runs     []*fl.Result
	rounds   int   // training rounds, summed over runs
	examples int64 // gradient examples, summed over runs
	worst    float64
	stats    simnet.RunStats
}

func (o outcome) linkBytes() int64 {
	var n int64
	for _, r := range o.runs {
		n += r.Ledger.TotalBytes()
	}
	return n
}

// corpusSeed fixes the synthetic corpus: it stands in for the paper's
// fixed datasets, so the workload seed varies the partition, the
// population roster and every training stream, not the data itself.
const corpusSeed = 1

// spec is the paper's §6.1 convex configuration, resized by sh.
func spec(seed uint64, sh shape) hierfair.Spec {
	s := hierfair.DefaultSpec(hierfair.AlgHierMinimax)
	s.Seed = seed
	s.Rounds, s.EvalEvery = sh.rounds, sh.evalEvery
	s.InputDim, s.TrainPerClass, s.TestPerClass = sh.dim, sh.trainPerClass, sh.testPerClass
	return s
}

// buildProblem assembles the problem of an EMNIST-substitute one-class
// spec the way the facade does, through the shared dataset cache, on
// the fixed corpus.
func buildProblem(s hierfair.Spec) *fl.Problem {
	profile := data.EMNISTDigitsLike()
	profile.Dim = s.InputDim
	train, test := profile.GenerateShared(s.TrainPerClass, s.TestPerClass, corpusSeed+100)
	fed := data.OneClassPerArea(train, test, s.ClientsPerEdge, s.Seed+103)
	return fl.NewProblem(fed, model.NewLinear(fed.InputDim, fed.NumClasses))
}

func config(s hierfair.Spec) fl.Config {
	cfg := fl.Config{
		Rounds: s.Rounds, Tau1: s.Tau1, Tau2: s.Tau2,
		EtaW: s.EtaW, EtaP: s.EtaP,
		BatchSize: s.BatchSize, LossBatch: s.LossBatch,
		SampledEdges: s.SampledEdges, Seed: s.Seed, EvalEvery: s.EvalEvery,
	}
	if s.QuantBits > 0 {
		cfg.Compression = quant.Config{Bits: s.QuantBits}
	}
	return cfg
}

// residentExamples counts the gradient examples of a resident-client
// hierarchical run: sampled edges x clients x tau1 x tau2 x batch per
// round.
func residentExamples(cfg fl.Config, clients int) int64 {
	return int64(cfg.Rounds * cfg.SampledEdges * clients * cfg.Tau1 * cfg.Tau2 * cfg.BatchSize)
}

func finalWorst(r *fl.Result) float64 { return r.History.Final().Fair.Worst }

// --- resident-dense ---

type resident struct {
	spec hierfair.Spec
	prob *fl.Problem
	cfg  fl.Config
}

func setupResident(seed uint64, sh shape) (instance, error) {
	s := spec(seed, sh)
	sp := obs.Start("bench.build-problem")
	prob := buildProblem(s)
	sp.End()
	cfg := config(s)
	if err := cfg.WithDefaults().Validate(prob); err != nil {
		return nil, err
	}
	return &resident{spec: s, prob: prob, cfg: cfg}, nil
}

func (r *resident) run() (outcome, error) {
	sp := obs.Start("bench.core.HierMinimax")
	res, err := core.HierMinimax(r.prob, r.cfg)
	sp.End()
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		runs:     []*fl.Result{res},
		rounds:   r.cfg.Rounds,
		examples: residentExamples(r.cfg, r.prob.Fed.ClientsPerArea()),
		worst:    finalWorst(res),
	}, nil
}

func (r *resident) calls() layerCalls { return hierCalls(r.cfg, r.prob.Fed.ClientsPerArea(), false) }

func (r *resident) replayInputs() replayInputs {
	return newReplayInputs(r.prob, r.cfg, func() { buildProblem(r.spec) })
}

// --- wire-q8 ---

type wireRun struct {
	// probs holds one problem per role: the cloud, then an edge server
	// and a client host per edge area.
	probs       []*fl.Problem
	spec        hierfair.Spec
	cfg         fl.Config
	probeRounds int
}

func setupWire(seed uint64, sh shape) (instance, error) {
	s := spec(seed, sh)
	s.QuantBits = 8
	cfg := config(s)
	roles := 1 + 2*s.NumEdges
	w := &wireRun{spec: s, cfg: cfg, probs: make([]*fl.Problem, roles), probeRounds: sh.probeRounds}
	for i := range w.probs {
		sp := obs.Start("bench.build-problem", obs.Int("role", i))
		w.probs[i] = buildProblem(s)
		sp.End()
	}
	if err := cfg.WithDefaults().Validate(w.probs[0]); err != nil {
		return nil, err
	}
	return w, nil
}

// loopback runs cfg over loopback TCP. RunWireLoopback asks for one
// problem to read the topology and then one per role; the roles get the
// problems built in setup, in call order.
func (w *wireRun) loopback(cfg fl.Config) (*fl.Result, simnet.RunStats, error) {
	var next atomic.Int64
	newProblem := func() *fl.Problem {
		i := int(next.Add(1)) - 2
		i = max(0, min(i, len(w.probs)-1))
		return w.probs[i]
	}
	sp := obs.Start("bench.simnet.RunWireLoopback")
	defer sp.End()
	return simnet.RunWireLoopback(newProblem, cfg)
}

func (w *wireRun) run() (outcome, error) {
	res, stats, err := w.loopback(w.cfg)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		runs:     []*fl.Result{res},
		rounds:   w.cfg.Rounds,
		examples: residentExamples(w.cfg, w.probs[0].Fed.ClientsPerArea()),
		worst:    finalWorst(res),
		stats:    stats,
	}, nil
}

// errParity reports a wire run whose model differs from the simnet
// engine's on the same spec.
var errParity = errors.New("perfbench: wire loopback model differs from the simnet engine's")

// probe runs a few rounds over loopback TCP and in the simnet engine and
// demands bitwise-equal final models.
func (w *wireRun) probe() error {
	cfg := w.cfg
	cfg.Rounds, cfg.EvalEvery = w.probeRounds, 0
	ref, _, err := simnet.HierMinimax(w.probs[0], cfg)
	if err != nil {
		return err
	}
	got, _, err := w.loopback(cfg)
	if err != nil {
		return err
	}
	return sameModel(ref, got)
}

func (w *wireRun) calls() layerCalls {
	return hierCalls(w.cfg, w.probs[0].Fed.ClientsPerArea(), true)
}

func (w *wireRun) replayInputs() replayInputs {
	return newReplayInputs(w.probs[0], w.cfg, func() { buildProblem(w.spec) })
}

// --- sweep-pop ---

type sweep struct {
	seed  uint64
	sh    shape
	cfg   fl.Config // base config; per-algorithm tau rules apply on top
	pool  *sched.Pool
	algos []experiments.AlgorithmName
}

func setupSweep(seed uint64, sh shape) (instance, error) {
	s := &sweep{seed: seed, sh: sh, pool: sched.New(runtime.NumCPU()), algos: experiments.AllAlgorithms}
	s.cfg = s.build().Base
	return s, nil
}

// build is the per-job workload construction: the Fig. 3 setup (a
// dataset-cache lookup) switched into the population regime.
func (s *sweep) build() experiments.FigSetup {
	sp := obs.Start("bench.build-problem")
	defer sp.End()
	fs := experiments.SetupFig3(s.sh.scale, corpusSeed)
	fs.Base.Seed = s.seed
	fs.Base.Rounds, fs.Base.EvalEvery = s.sh.rounds, s.sh.evalEvery
	return fs.WithPopulation(s.sh.population, s.sh.samplePerRound)
}

// configFor applies the §6 per-algorithm tau rules: two-layer methods
// take tau2=1 and Stochastic-AFL also tau1=1.
func configFor(base fl.Config, algo experiments.AlgorithmName) fl.Config {
	cfg := base
	switch algo {
	case experiments.StochasticAFL:
		cfg.Tau1, cfg.Tau2 = 1, 1
	case experiments.FedAvg, experiments.DRFA:
		cfg.Tau2 = 1
	}
	return cfg
}

func runAlgorithm(algo experiments.AlgorithmName, prob *fl.Problem, cfg fl.Config) (*fl.Result, error) {
	switch algo {
	case experiments.FedAvg:
		return baselines.FedAvg(prob, cfg)
	case experiments.StochasticAFL:
		return baselines.StochasticAFL(prob, cfg)
	case experiments.DRFA:
		return baselines.DRFA(prob, cfg)
	case experiments.HierFAvg:
		return baselines.HierFAvg(prob, cfg)
	case experiments.HierMinimax:
		return core.HierMinimax(prob, cfg)
	}
	return nil, fmt.Errorf("perfbench: unknown algorithm %q", algo)
}

// run is the figure sweep: one sched job per algorithm, each building
// its own setup. It mirrors experiments.RunFigure's job body but keeps
// each run's fl.Result, whose model, edge weights and ledger the output
// checks and link_bytes_per_round need and the figure result drops.
func (s *sweep) run() (outcome, error) {
	sp := obs.Start("bench.sched.Map")
	runs, err := sched.Map(s.pool, "perfbench-fig3", len(s.algos), func(i int) (*fl.Result, error) {
		fs := s.build()
		prob := fl.NewProblem(fs.Fed, fs.Model.Clone())
		return runAlgorithm(s.algos[i], prob, configFor(fs.Base, s.algos[i]))
	})
	sp.End()
	if err != nil {
		return outcome{}, err
	}
	o := outcome{runs: runs}
	for i, r := range runs {
		cfg := configFor(s.cfg, s.algos[i])
		o.rounds += cfg.Rounds
		o.examples += int64(cfg.Rounds * cfg.SamplePerRound * cfg.Tau1 * cfg.Tau2 * cfg.BatchSize)
		if s.algos[i] == experiments.HierMinimax {
			o.worst = finalWorst(r)
		}
	}
	return o, nil
}

func (s *sweep) calls() layerCalls { return sweepCalls(s.cfg, s.algos) }

func (s *sweep) replayInputs() replayInputs {
	fs := s.build()
	cfg := fs.Base
	in := newReplayInputs(fl.NewProblem(fs.Fed, fs.Model), cfg, func() { s.build() })
	in.roster = cfg.Roster(fs.Fed.NumAreas())
	var scratch population.ShardScratch
	in.shard = in.roster.ShardInto(0, fs.Fed.Areas[0].Train, &scratch)
	return in
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
