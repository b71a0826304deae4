package dtbgc

import (
	"context"
	"fmt"

	"github.com/dtbgc/dtbgc/internal/apps/cfrac"
	"github.com/dtbgc/dtbgc/internal/apps/circuit"
	"github.com/dtbgc/dtbgc/internal/apps/logicmin"
	"github.com/dtbgc/dtbgc/internal/apps/psint"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// AppEvalOptions sizes the application-driven evaluation.
type AppEvalOptions struct {
	// GhostPages is the page count for the PostScript runs (default 40).
	// It and the two counts below must not be negative.
	GhostPages int
	// EspressoProblems is the PLA batch size (default 10).
	EspressoProblems int
	// SisVectors is the verification vector count (default 1024).
	SisVectors int
	// CfracN is the number to factor (default an 18-digit semiprime).
	CfracN string
	// TriggerBytes is the scavenge interval (default 64 KB — the app
	// traces are megabytes, not the paper's tens of megabytes).
	TriggerBytes uint64
	// MemMaxBytes is DTBMEM's budget (default 256 KB).
	MemMaxBytes uint64
	// TraceMaxBytes is the FEEDMED/DTBFM budget (default 16 KB).
	TraceMaxBytes uint64
	// Probe, when non-nil, receives telemetry from every simulated
	// run, labelled "app/collector" (the app runs themselves are not
	// instrumented — they record traces; the replays emit telemetry).
	// Apps run concurrently, so the Probe must be safe for concurrent
	// use; the stock sinks are.
	Probe Probe
	// Workers bounds how many apps run-and-replay concurrently; zero
	// means GOMAXPROCS.
	Workers int
}

func (o AppEvalOptions) withDefaults() AppEvalOptions {
	if o.GhostPages == 0 {
		o.GhostPages = 40
	}
	if o.EspressoProblems == 0 {
		o.EspressoProblems = 10
	}
	if o.SisVectors == 0 {
		o.SisVectors = 1024
	}
	if o.CfracN == "" {
		o.CfracN = "998244359987710471"
	}
	if o.TriggerBytes == 0 {
		o.TriggerBytes = 64 * 1024
	}
	if o.MemMaxBytes == 0 {
		o.MemMaxBytes = 256 * 1024
	}
	if o.TraceMaxBytes == 0 {
		o.TraceMaxBytes = 16 * 1024
	}
	return o
}

// RunAppEvaluation is the evaluation matrix computed over the real
// mini-applications instead of the calibrated synthetic profiles:
// each program runs on the managed heap (the QPT-instrumentation
// stand-in), its recorded malloc/free trace drives all six collectors
// plus the baselines in one fan-out pass, and the same Table
// accessors apply. It is the end-to-end variant of
// RunPaperEvaluation, trading calibration fidelity for organic
// program behaviour, and RunAppEvaluationContext without
// cancellation.
func RunAppEvaluation(opts AppEvalOptions) (*Evaluation, error) {
	return RunAppEvaluationContext(context.Background(), opts)
}

// RunAppEvaluationContext is RunAppEvaluation under a context: apps
// are scheduled on a bounded pool, a hard failure cancels the
// remaining work, and cancelling ctx aborts in-flight replays at
// their next event boundary. The apps themselves are not
// interruptible — cancellation lands between an app's run and its
// replay, or inside the replay.
func RunAppEvaluationContext(ctx context.Context, opts AppEvalOptions) (*Evaluation, error) {
	opts = opts.withDefaults()
	// Zero picks the default, so only a negative count gets here. It
	// would make the PLA batch a negative-length slice, a panic on a
	// worker goroutine, and run the other apps on no input at all.
	if opts.GhostPages < 0 || opts.EspressoProblems < 0 || opts.SisVectors < 0 {
		return nil, fmt.Errorf("dtbgc: AppEvalOptions counts must not be negative: GhostPages %d, EspressoProblems %d, SisVectors %d",
			opts.GhostPages, opts.EspressoProblems, opts.SisVectors)
	}

	type app struct {
		name, desc string
		run        func() ([]Event, error)
	}
	apps := []app{
		{"ghost(1)", "PostScript-subset interpreter, synthetic manual (text-heavy)", func() ([]Event, error) {
			res, err := psint.RunDocument(psint.GenerateDocument(opts.GhostPages, 1))
			if err != nil {
				return nil, err
			}
			return res.Events, nil
		}},
		{"ghost(2)", "PostScript-subset interpreter, synthetic thesis (figure-heavy)", func() ([]Event, error) {
			res, err := psint.RunDocument(psint.GenerateDrawing(opts.GhostPages, 2))
			if err != nil {
				return nil, err
			}
			return res.Events, nil
		}},
		{"espresso", "cube-cover logic minimizer, random PLA batch", func() ([]Event, error) {
			plas := make([]string, opts.EspressoProblems)
			for i := range plas {
				plas[i] = logicmin.GeneratePLA(9, 18, 3, uint64(i+1))
			}
			res, err := logicmin.RunBatch(plas, 300)
			if err != nil {
				return nil, err
			}
			return res.Events, nil
		}},
		{"sis", "BLIF network sweep + random-vector verification", func() ([]Event, error) {
			res, err := circuit.Run(circuit.GenerateBLIF(24, 600, 16, 1), opts.SisVectors)
			if err != nil {
				return nil, err
			}
			return res.Events, nil
		}},
		{"cfrac", "continued-fraction factorization", func() ([]Event, error) {
			_, _, events, err := cfrac.Factor(opts.CfracN, cfrac.Config{})
			return events, err
		}},
	}

	ev := &Evaluation{
		Options: EvalOptions{
			Scale:         1,
			TriggerBytes:  opts.TriggerBytes,
			MemMaxBytes:   opts.MemMaxBytes,
			TraceMaxBytes: opts.TraceMaxBytes,
		},
		Runs: make([]RunSet, len(apps)),
	}
	jobs := make([]engine.Job, len(apps))
	for i, a := range apps {
		jobs[i] = func(ctx context.Context) error {
			// The app run records the whole trace before any replay and
			// cannot be interrupted mid-program; skip it when the
			// evaluation is already cancelled.
			if err := ctx.Err(); err != nil {
				return err
			}
			events, err := a.run()
			if err != nil {
				return fmt.Errorf("dtbgc: app %s: %w", a.name, err)
			}
			sims := collectorMatrix(a.name, opts.TriggerBytes, opts.MemMaxBytes,
				opts.TraceMaxBytes, false, 0, opts.Probe)
			results, err := replayMatrix(ctx, engine.SliceBatchSource(events), sims)
			if err != nil {
				return fmt.Errorf("dtbgc: app %s: %w", a.name, err)
			}
			ev.Runs[i] = RunSet{
				Workload: workload.Profile{Name: a.name, Description: a.desc},
				Results:  results,
			}
			return nil
		}
	}
	if err := engine.RunJobs(ctx, opts.Workers, jobs); err != nil {
		return nil, err
	}
	return ev, nil
}
