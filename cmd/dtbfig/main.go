// Command dtbfig regenerates the paper's Figure 2 — memory in use
// over execution time — as CSV: one series for the chosen collector,
// one for the live-byte floor.
//
// Usage:
//
//	dtbfig [-workload "GHOST(1)"] [-collector Full] [-scale F] [-points N] > fig2.csv
//
// The figure is buffered and checked through to the final flush, so a
// write failure (full disk behind a redirect, closed pipe) fails the
// command instead of leaving a truncated CSV. Exit status: 0 success,
// 1 operational failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/cliio"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dtbfig:", err)
	}
	os.Exit(cliio.ExitCode(err))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dtbfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "GHOST(1)", "paper workload name")
	collector := fs.String("collector", "DtbMem", "collector column (Full, Fixed1, Fixed4, DtbMem, FeedMed, DtbFM, NoGC, Live)")
	scale := fs.Float64("scale", 0.25, "workload scale factor")
	points := fs.Int("points", 2000, "maximum points per series")
	trigger := fs.Uint64("trigger", 1<<20, "scavenge trigger in bytes")
	ascii := fs.Bool("ascii", false, "render a text chart instead of CSV")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &cliio.UsageError{Err: err}
	}

	w, err := dtbgc.LookupWorkload(*workloadName)
	if err != nil {
		return &cliio.UsageError{Err: err}
	}
	if err := cliio.CheckScale(*scale); err != nil {
		return err
	}
	columns := append(append([]string{}, dtbgc.CollectorOrder...), "NoGC", "Live")
	if !slices.Contains(columns, *collector) {
		return cliio.Usagef("unknown collector %q (valid: %s)", *collector, strings.Join(columns, ", "))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ev, err := dtbgc.RunPaperEvaluationContext(ctx, dtbgc.EvalOptions{
		Scale:        *scale,
		TriggerBytes: *trigger,
		Profiles:     []dtbgc.Workload{w},
		RecordCurves: true,
		CurvePoints:  *points,
	})
	if err != nil {
		return err
	}
	var out string
	if *ascii {
		out, err = ev.Figure2Ascii(ev.Runs[0].Workload.Name, *collector, 100, 24)
	} else {
		out, err = ev.Figure2(ev.Runs[0].Workload.Name, *collector)
	}
	if err != nil {
		return err
	}
	return cliio.WriteTo("", stdout, nil, func(w io.Writer) error {
		_, err := io.WriteString(w, out)
		return err
	})
}
