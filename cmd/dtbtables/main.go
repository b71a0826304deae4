// Command dtbtables regenerates the paper's evaluation tables (2, 3,
// 4 and 6) by running all six collectors plus the NoGC and Live
// baselines over the six calibrated workloads, or, with -apps, over
// the traces the mini-applications record.
//
// Usage:
//
//	dtbtables [-table N] [-scale F] [-trigger BYTES] [-memmax BYTES] [-tracemax BYTES]
//	dtbtables -apps [-table N] [-trigger BYTES] [-memmax BYTES] [-tracemax BYTES]
//
// With no -table flag every table prints. -scale shrinks the
// workloads proportionally for quick runs (the paper-size runs take
// around a minute). -trigger, -memmax and -tracemax default to the
// paper's 1 MB, 3000 KB and 50 KB, and with -apps to the
// mini-applications' 64 KB, 256 KB and 16 KB. Workloads are evaluated
// concurrently on a bounded pool (-workers, default GOMAXPROCS);
// Ctrl-C cancels the evaluation at the next event boundary.
// -cpuprofile and -memprofile write pprof profiles of the evaluation
// for `go tool pprof`.
//
// Table output is buffered and checked through to the final flush, so
// a write failure (full disk behind a redirect, closed pipe) fails
// the command with a non-zero exit instead of printing a truncated
// table that looks complete. -inject SPEC schedules deterministic
// faults on the outputs (see internal/fault) for testing exactly
// that. Exit status: 0 success, 1 operational failure, 2 usage error.
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
		fmt.Fprintln(os.Stderr, "dtbtables:", err)
	}
	os.Exit(cliio.ExitCode(err))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dtbtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "table to print (2, 3, 4, 5 or 6); 0 = all")
	scale := fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper size)")
	trigger := fs.Uint64("trigger", 0, "scavenge trigger in bytes (default 1 MB, or 64 KB with -apps)")
	memMax := fs.Uint64("memmax", 0, "DTBMEM memory constraint in bytes (default 3000 KB, or 256 KB with -apps)")
	traceMax := fs.Uint64("tracemax", 0, "FEEDMED/DTBFM trace budget in bytes (default 50 KB, or 16 KB with -apps)")
	workers := fs.Int("workers", 0, "workloads evaluated concurrently (0 = GOMAXPROCS)")
	compare := fs.Bool("compare", false, "print measured values beside the paper's published numbers")
	check := fs.Bool("check", false, "verify the paper's qualitative claims (DESIGN.md §6); non-zero exit on failure")
	apps := fs.Bool("apps", false, "evaluate over the real mini-application traces instead of the calibrated profiles")
	progress := fs.Bool("progress", false, "stream per-run progress and summaries to stderr while the evaluation runs")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the evaluation to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile taken after the evaluation to FILE")
	inject := fs.String("inject", "", "schedule deterministic I/O faults on the outputs (see internal/fault)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &cliio.UsageError{Err: err}
	}
	var plan *fault.Plan
	if *inject != "" {
		p, err := fault.ParseSpec(*inject)
		if err != nil {
			return &cliio.UsageError{Err: err}
		}
		plan = p
	}
	switch *table {
	case 0, 2, 3, 4, 5, 6:
	default:
		return cliio.Usagef("no table %d (have 2, 3, 4, 5, 6)", *table)
	}
	// These pairs used to slip through: -apps runs the fixed-size
	// mini-application traces, so -scale was silently ignored, and
	// -check silently won over -compare.
	if err := cliio.Conflicts(fs,
		cliio.Conflict{A: "apps", B: "scale", Reason: "the mini-application traces are fixed-size; -scale shapes only the calibrated profiles"},
		cliio.Conflict{A: "compare", B: "check", Reason: "print a comparison or verify the claims, not both"},
		cliio.Conflict{A: "check", B: "table", Reason: "-check verifies every claim; it does not print tables"},
	); err != nil {
		return err
	}
	if err := cliio.CheckScale(*scale); err != nil {
		return err
	}
	if *compare && (*table == 5 || *table == 6) {
		return cliio.Usagef("-compare covers tables 2, 3 and 4: the paper publishes no numbers for table %d", *table)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var probe dtbgc.Probe
	if *progress {
		probe = dtbgc.NewProgressReporter(stderr)
	}
	var ev *dtbgc.Evaluation
	err := cliio.Profile(*cpuprofile, *memprofile, plan, func() (err error) {
		if *apps {
			ev, err = dtbgc.RunAppEvaluationContext(ctx, dtbgc.AppEvalOptions{
				TriggerBytes:  *trigger,
				MemMaxBytes:   *memMax,
				TraceMaxBytes: *traceMax,
				Probe:         probe,
				Workers:       *workers,
			})
		} else {
			ev, err = dtbgc.RunPaperEvaluationContext(ctx, dtbgc.EvalOptions{
				Scale:         *scale,
				TriggerBytes:  *trigger,
				MemMaxBytes:   *memMax,
				TraceMaxBytes: *traceMax,
				Probe:         probe,
				Workers:       *workers,
			})
		}
		return err
	})
	if err != nil {
		return err
	}
	if *check {
		errs := ev.ShapeCheck()
		for _, e := range errs {
			fmt.Fprintln(stderr, "claim violated:", e)
		}
		if len(errs) > 0 {
			return fmt.Errorf("%d reproduction claim(s) violated", len(errs))
		}
		return cliio.WriteTo("", stdout, plan, func(w io.Writer) error {
			fmt.Fprintln(w, "all reproduction claims hold")
			return nil
		})
	}
	if *compare {
		return cliio.WriteTo("", stdout, plan, func(w io.Writer) error {
			for _, n := range []int{2, 3, 4} {
				if *table != 0 && *table != n {
					continue
				}
				tab, err := ev.CompareTable(n)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, tab)
			}
			return nil
		})
	}
	return cliio.WriteTo("", stdout, plan, func(w io.Writer) error {
		for _, t := range []struct {
			n      int
			render func() *dtbgc.Table
		}{
			{2, ev.Table2}, {3, ev.Table3}, {4, ev.Table4}, {5, ev.Table5}, {6, ev.Table6},
		} {
			if *table == 0 || *table == t.n {
				fmt.Fprintln(w, t.render())
			}
		}
		return nil
	})
}
