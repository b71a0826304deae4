// Command dtbsim runs one collector over one workload (or a recorded
// trace file) and prints its metrics — the single-cell view of the
// evaluation tables.
//
// Usage:
//
//	dtbsim -policy dtbfm:50k -workload "GHOST(1)" [-scale F] [-trigger BYTES]
//	dtbsim -policy dtbmem:3000k -trace events.dtbt
//	dtbsim -baseline live -workload CFRAC
//	dtbsim -policy dtbfm:50k -workload SIS -telemetry run.jsonl
//	dtbsim -policy full -workload "ESPRESSO(2)" -cpuprofile cpu.pprof -memprofile mem.pprof
//	dtbsim -policy full -trace damaged.dtbt -recover
//	dtbsim -policy full -trace events.dtbt -resume 2 -inject read-err@64k
//
// The run is streamed through the replay engine: a generated workload
// is emitted event by event and a trace file is decoded a fixed-size
// batch at a time, so memory use is bounded by the simulated heap,
// not the trace length. Interrupting the process (Ctrl-C) cancels the
// replay at the next batch boundary.
//
// -audit attaches the invariant auditor (internal/audit) to the run;
// any breach of the paper's per-scavenge identities is printed to
// stderr and fails the run with a non-zero exit. -telemetry streams
// per-scavenge JSON-lines telemetry (the schema is documented in the
// README's Observability section) to a file, or to stdout with "-".
// -cpuprofile and -memprofile write stock pprof
// profiles of the harness itself, so its hot spots are measurable
// with `go tool pprof`. Conflicting flags are rejected: -policy
// cannot be combined with -baseline, -workload with -trace, and
// -scale only applies to generated workloads.
//
// Robustness flags: -recover decodes a damaged trace with the
// recovery decoder, resyncing past corrupt records and absorbing a
// torn tail; the exact drop accounting prints to stderr (and lands in
// the telemetry stream as a "drops" line) — never silently. -resume N
// retries a replay interrupted between events (source read error,
// cancellation) up to N times by reopening the source; the resumed
// results are bit-identical to an uninterrupted run. -inject SPEC
// schedules deterministic faults on the tool's own I/O (see
// internal/fault) to prove those paths under test.
//
// Exit status: 0 on success (including a recovered run with accounted
// drops), 1 on operational failure, 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/fault"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dtbsim:", err)
	}
	os.Exit(cliio.ExitCode(err))
}

// run is the whole tool behind a single error return, so every
// deferred cleanup (profile stop, output close checks) fires exactly
// once on success and failure alike — an os.Exit on the error path
// would skip them, which is how a CPU profile ends up empty and a
// truncated output file exits 0.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("dtbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policySpec := fs.String("policy", "", "collector policy (full, fixed1, fixed4, feedmed:<b>, dtbfm:<b>, dtbmem:<b>)")
	baseline := fs.String("baseline", "", "baseline instead of a policy: nogc or live")
	workloadName := fs.String("workload", "", `paper workload name, e.g. "GHOST(1)", ESPRESSO(2), SIS, CFRAC`)
	traceFile := fs.String("trace", "", "binary trace file to replay instead of a workload")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	trigger := fs.Uint64("trigger", 1<<20, "scavenge trigger in bytes")
	history := fs.Bool("history", false, "print the per-scavenge history as CSV instead of the summary")
	opportunistic := fs.Bool("opportunistic", false, "also scavenge at trace marks (program quiescent points)")
	pageFrames := fs.Int("pages", 0, "enable the VM model with this many resident 4 KB pages")
	auditRun := fs.Bool("audit", false, "attach the invariant auditor; violations go to stderr and fail the run")
	telemetry := fs.String("telemetry", "", "write per-scavenge JSON-lines telemetry to FILE (- for stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile taken after the run to FILE")
	recoverTrace := fs.Bool("recover", false, "decode the -trace file with the recovery decoder, resyncing past damage with accounted drops")
	resume := fs.Int("resume", 0, "retry a replay interrupted between events up to N times by reopening the source")
	inject := fs.String("inject", "", `schedule deterministic I/O faults, e.g. "read-err@64k,close-err" (see internal/fault)`)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &cliio.UsageError{Err: err}
	}

	// Conflicting flags are an error, not a silent preference: a
	// dropped -policy or -scale yields a plausible-looking result for
	// a run the user did not ask for.
	if err := cliio.Conflicts(fs,
		cliio.Conflict{A: "policy", B: "baseline", Reason: "a run is driven by one or the other"},
		cliio.Conflict{A: "workload", B: "trace", Reason: "choose one event source"},
		cliio.Conflict{A: "scale", B: "trace", Reason: "-scale applies to generated workloads and cannot rescale a recorded trace"},
	); err != nil {
		return err
	}
	if *recoverTrace && *traceFile == "" {
		return cliio.Usagef("-recover decodes a damaged -trace file; a generated workload has nothing to recover")
	}
	if *resume < 0 {
		return cliio.Usagef("-resume %d: retry count cannot be negative", *resume)
	}

	var plan *fault.Plan
	if *inject != "" {
		plan, err = fault.ParseSpec(*inject)
		if err != nil {
			return &cliio.UsageError{Err: err}
		}
	}

	opts := dtbgc.SimOptions{TriggerBytes: *trigger, Opportunistic: *opportunistic, PageFrames: *pageFrames}
	switch *baseline {
	case "":
		p, err := dtbgc.ParsePolicy(*policySpec)
		if err != nil {
			return &cliio.UsageError{Err: err}
		}
		opts.Policy = p
	case "nogc":
		opts.NoGC = true
	case "live":
		opts.LiveOracle = true
	default:
		return cliio.Usagef("unknown baseline %q (nogc or live)", *baseline)
	}

	var wl dtbgc.Workload
	switch {
	case *traceFile != "":
	case *workloadName != "":
		w, err := dtbgc.LookupWorkload(*workloadName)
		if err != nil {
			return &cliio.UsageError{Err: err}
		}
		if err := cliio.CheckScale(*scale); err != nil {
			return err
		}
		wl = w.Scale(*scale)
	default:
		return cliio.Usagef("need -workload or -trace")
	}

	var telOut *cliio.Output
	var tw *dtbgc.TelemetryWriter
	if *telemetry != "" {
		telOut, err = cliio.Create(*telemetry, stdout, plan)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := telOut.Close(); err == nil {
				err = fold("telemetry", cerr)
			}
		}()
		tw = dtbgc.NewTelemetryWriter(telOut)
	}
	var auditor *dtbgc.Auditor
	if *auditRun {
		auditor = dtbgc.NewAuditor()
	}
	label := ""
	if tw != nil || auditor != nil {
		// Append only the live probes: a typed-nil *TelemetryWriter
		// boxed into the Probe interface would not read as nil.
		var probes []dtbgc.Probe
		if tw != nil {
			probes = append(probes, tw)
		}
		if auditor != nil {
			probes = append(probes, auditor)
		}
		opts.Probe = dtbgc.CombineProbes(probes...)
		switch {
		case *workloadName != "":
			label = *workloadName
		default:
			label = *traceFile
		}
		opts.Label = label
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// openSource (re)opens the event source for one replay attempt.
	// Each attempt gets its own cancel so an injected cancellation
	// storm kills only that attempt; a resume retries under a fresh
	// context with the one-shot fault already spent.
	openSource := func(cancel func()) (src dtbgc.EventSource, drops func() dtbgc.DropStats, closeFn func() error, err error) {
		if *traceFile != "" {
			f, err := os.Open(*traceFile)
			if err != nil {
				return nil, nil, nil, err
			}
			r := plan.Reader(f)
			if *recoverTrace {
				src, drops = dtbgc.RecoveringSource(r)
			} else {
				src = dtbgc.StreamSource(r)
			}
			closeFn = f.Close
		} else {
			src = wl.GenerateTo
		}
		return plan.Source(src, cancel), drops, closeFn, nil
	}

	var results []*dtbgc.Result
	var drops dtbgc.DropStats
	err = cliio.Profile(*cpuprofile, *memprofile, plan, func() error {
		var cp *dtbgc.Checkpoint
		for attempt := 0; ; attempt++ {
			runCtx, cancel := context.WithCancel(ctx)
			src, dropsFn, closeFn, oerr := openSource(cancel)
			if oerr != nil {
				cancel()
				return oerr
			}
			var rerr error
			if cp == nil {
				results, cp, rerr = dtbgc.ReplayAllResumable(runCtx, src, []dtbgc.SimOptions{opts})
			} else {
				results, cp, rerr = cp.Resume(runCtx, src)
			}
			if dropsFn != nil {
				// The latest pass re-reads the stream from the top, so its
				// accounting covers the whole stream and supersedes any
				// interrupted pass's partial count.
				drops = dropsFn()
			}
			if closeFn != nil {
				if cerr := closeFn(); rerr == nil && cerr != nil {
					rerr = cerr
				}
			}
			cancel()
			if rerr == nil {
				return nil
			}
			if cp == nil || attempt >= *resume {
				return fmt.Errorf("replay: %w", rerr)
			}
			fmt.Fprintf(stderr, "dtbsim: resuming after: %v (%d events processed, attempt %d of %d)\n",
				rerr, cp.Events(), attempt+1, *resume)
		}
	})
	if err != nil {
		return err
	}
	res := results[0]

	// A recovered run is a success with a disclosed cost: the drops are
	// reported on stderr and in the telemetry/audit streams, and the
	// exit stays 0 — the failure mode this tool refuses is silence, not
	// damage.
	if drops.Any() {
		fmt.Fprintf(stderr, "dtbsim: recovered %s: %s\n", *traceFile, drops)
	}
	if tw != nil {
		tw.Drops(label, drops)
	}
	if auditor != nil {
		auditor.NoteDrops(label, drops)
	}

	if tw != nil {
		if werr := tw.Err(); werr != nil {
			return fmt.Errorf("writing telemetry: %w", werr)
		}
	}
	if auditor != nil {
		if vs := auditor.Violations(); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintln(stderr, "dtbsim: audit:", v)
			}
			return fmt.Errorf("audit: %d invariant violation(s)", len(vs))
		}
	}

	return cliio.WriteTo("", stdout, plan, func(w io.Writer) error {
		if *history {
			_, err := io.WriteString(w, dtbgc.HistoryCSV(res))
			return err
		}
		cliio.PrintSummary(w, res)
		return nil
	})
}

// fold labels a close error with the stream it came from.
func fold(name string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", name, err)
}
