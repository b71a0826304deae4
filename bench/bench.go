// Package bench is dtbbench, the repository's seeded end-to-end
// benchmark. Four workloads cover the ways the reproduction is used:
// regenerating the paper's tables (paper-matrix), fanning one trace out
// to many collectors (fanout64), replaying a recorded trace from its
// binary encoding (churn-decode) and serving evaluations over dtbd
// (serve-mix).
//
// One run is one workload at one seed in one process: set the inputs
// up, run an untimed verify op whose results are diffed against the
// audit oracle's solo reference leg and the committed golden digests,
// then time ops back to back for the requested seconds, checking every
// op's result digest against the verify op's and rebuilding the inputs
// now and then. A calibration kernel runs between ops, and every
// end-to-end time is a median scaled to a reference host speed (see
// hostSpeed). An untraced run prints the end-to-end metrics; a traced
// run (Params.Trace) times every layer from outside, around calls into
// its public functions, and prints the per-layer ledger.
package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// Params selects one run.
type Params struct {
	Workload string
	Seed     uint64
	// Seconds is how long the timed phase lasts; at least one op runs
	// (one of each kind in a traced run) however small it is.
	Seconds float64
	// Trace makes this a traced run, which prints the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	// SpansPath, when set on a traced run, receives every recorded span
	// as JSON when the run ends.
	SpansPath string

	// Test hooks, never set by the command. scale shrinks every input
	// (and serve-mix's warm-up, sample and per-class floor) when > 0;
	// golden replaces the committed digests when non-nil.
	scale  float64
	golden goldenTable
}

func (p Params) inputScale() float64 {
	if p.scale > 0 {
		return p.scale
	}
	return 1
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Header is printed on the line before the Result: what ran, how many
// ops or samples stand behind each metric, the result digest the golden
// file pins, the host's speed during the run and the scaled metrics as
// measured, and every verification problem found.
type Header struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Digest   string         `json:"digest"`
	Samples  map[string]int `json:"samples"`
	// KernelMs is the median calibration kernel time of the run; the
	// reference host takes refKernelNs.
	KernelMs float64 `json:"kernel_ms"`
	// Unscaled holds each end-to-end time metric before scaling to the
	// reference host.
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// Workload is one benchmark workload. BENCHMARK.json and README.md
// record why each exists.
type Workload struct {
	Name string
	run  func(ctx context.Context, r *run) error
}

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
var Workloads = []Workload{
	{Name: "paper-matrix", run: runPaperMatrix},
	{Name: "fanout64", run: runFanout64},
	{Name: "churn-decode", run: runChurnDecode},
	{Name: "serve-mix", run: runServeMix},
}

// Run executes one run. A returned error means the run could not be
// carried out (bad parameters, failed set-up); verification failures
// are reported in the Result and Header instead.
func Run(ctx context.Context, p Params) (*Header, *Result, error) {
	var w *Workload
	names := make([]string, len(Workloads))
	for i := range Workloads {
		names[i] = Workloads[i].Name
		if Workloads[i].Name == p.Workload {
			w = &Workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", p.Workload, strings.Join(names, ", "))
	}
	if p.Seconds < 0 || math.IsNaN(p.Seconds) {
		return nil, nil, fmt.Errorf("seconds %v must be a non-negative number", p.Seconds)
	}
	r := &run{
		p:        p,
		workload: w.Name,
		rng:      xrand.New(0xD7BBE4C4 + p.Seed),
		values:   make(map[string]float64),
		samples:  make(map[string]int),
		unscaled: make(map[string]float64),
	}
	if p.Trace {
		r.tracer = &tracer{}
	}
	if err := w.run(ctx, r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if r.tracer != nil && p.SpansPath != "" {
		if err := r.tracer.write(p.SpansPath); err != nil {
			return nil, nil, err
		}
	}
	h, res := r.report()
	return h, res, nil
}

// run is the mutable state of one run.
type run struct {
	p         Params
	workload  string
	rng       *xrand.Rand
	values    map[string]float64
	samples   map[string]int
	unscaled  map[string]float64
	attempted int
	failed    int
	problems  []string
	digest    string
	tracer    *tracer
	host      *hostSpeed
}

// set records a metric value and the number of ops or samples behind it.
func (r *run) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// setScaled records a metric taken from host time: v at the reference
// host speed, and raw as measured, for the header.
func (r *run) setScaled(name string, v, raw float64, samples int) {
	r.set(name, v, samples)
	r.unscaled[name] = raw
}

// startHostSpeed starts the run's calibration; it runs the kernel once.
func (r *run) startHostSpeed() (*hostSpeed, error) {
	hs, err := newHostSpeed()
	r.host = hs
	return hs, err
}

// failOp counts one failed op and records why.
func (r *run) failOp(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkGolden compares the run's verified digest with the committed
// one for this workload and seed, when there is one. Committed digests
// are for full-size inputs, so a scaled test run checks only a table
// it was handed.
func (r *run) checkGolden() {
	table := r.p.golden
	if table == nil {
		if r.p.scale > 0 {
			return
		}
		table = committedGolden
	}
	if want, ok := table.lookup(r.workload, r.p.Seed); ok && want != r.digest {
		r.problem("result digest %s differs from golden %s for seed %d", r.digest, want, r.p.Seed)
	}
}

// report assembles the output: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A layer that
// did not run reports 0; a missing end-to-end metric or a value that
// is not a finite number is a failure.
func (r *run) report() (*Header, *Result) {
	defs := endToEnd
	if r.p.Trace {
		defs = perLayer
	}
	metrics := make(map[string]Metric, len(defs))
	samples := make(map[string]int, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		switch {
		case !ok && !r.p.Trace:
			r.problem("metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.problem("metric %s is %v", d.Name, v)
			v = 0
		}
		metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
		samples[d.Name] = r.samples[d.Name]
	}
	if len(r.problems) > 0 && r.failed == 0 {
		// A verification problem outside the timed ops (oracle, golden,
		// a missing metric) fails the verify op.
		r.failed = 1
	}
	h := &Header{
		Workload: r.workload,
		Seed:     r.p.Seed,
		Trace:    r.p.Trace,
		Digest:   r.digest,
		Samples:  samples,
		Problems: r.problems,
	}
	if r.host != nil {
		h.KernelMs = r.host.kernelNs() / 1e6
	}
	if !r.p.Trace {
		h.Unscaled = r.unscaled
	}
	res := &Result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	return h, res
}

// Set-up is repeated through the run, and setup_s is the median build,
// scaled by the run's median kernel time. A run rebuilds its inputs
// while set-up has taken less than setupShare of the time spent on ops,
// at most setupMaxReps builds at a time, and at least setupMinReps
// builds in all.
const (
	setupShare   = 0.1
	setupMaxReps = 64
	setupMinReps = 3
)

// setupTimer times repeated builds of a run's inputs.
type setupTimer[T any] struct {
	build func() (T, error)
	// release, when set, frees an instance that is not used.
	release func(T)
	times   []float64
	spent   float64
}

// once builds the inputs one more time.
func (s *setupTimer[T]) once() (T, error) {
	t0 := nanotime()
	inst, err := s.build()
	if err != nil {
		return inst, fmt.Errorf("set-up: %w", err)
	}
	dt := float64(nanotime()-t0) / 1e9
	s.times = append(s.times, dt)
	s.spent += dt
	return inst, nil
}

// again builds the inputs once more and releases them.
func (s *setupTimer[T]) again() error {
	inst, err := s.once()
	if err == nil && s.release != nil {
		s.release(inst)
	}
	return err
}

// more rebuilds the inputs while set-up has taken less than budget
// seconds in all, at most setupMaxReps times.
func (s *setupTimer[T]) more(budget float64) error {
	for i := 0; i < setupMaxReps && s.spent < budget; i++ {
		if err := s.again(); err != nil {
			return err
		}
	}
	return nil
}

// report tops the builds up to setupMinReps and records the median as
// setup_s.
func (s *setupTimer[T]) report(r *run, hs *hostSpeed) error {
	for len(s.times) < setupMinReps {
		if err := s.again(); err != nil {
			return err
		}
	}
	med := stats.Median(s.times)
	r.setScaled("setup_s", hs.scaleRun(med), med, len(s.times))
	return nil
}

// heapMB forces a collection and returns the live Go heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
