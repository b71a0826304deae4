// Command dtbtrace generates, converts and inspects allocation
// traces.
//
// Usage:
//
//	dtbtrace gen -workload "GHOST(1)" [-scale F] -o trace.dtbt
//	dtbtrace stat trace.dtbt
//	dtbtrace convert -from bin -to text trace.dtbt > trace.txt
//	dtbtrace validate trace.dtbt
//	dtbtrace window -from 0 -to 500000 -o window.dtbt trace.dtbt
//
// Every output path is checked through to Close — a full disk fails
// the command with a non-zero exit instead of leaving a silently
// truncated file. The file-writing subcommands take -inject SPEC to
// schedule deterministic I/O faults (see internal/fault) for testing
// exactly that. Exit status: 0 success, 1 operational failure, 2
// usage error.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/fault"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dtbtrace:", err)
	}
	os.Exit(cliio.ExitCode(err))
}

// run dispatches the subcommands; every path returns through here so
// deferred close checks always fire and the exit code is uniform.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return usageErr()
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "gen":
		return cmdGen(rest, stdout, stderr)
	case "stat":
		return cmdStat(rest, stdout)
	case "convert":
		return cmdConvert(rest, stdout, stderr)
	case "validate":
		return cmdValidate(rest, stdout)
	case "forward":
		return cmdForward(rest, stdout)
	case "window":
		return cmdWindow(rest, stdout, stderr)
	case "lifetimes":
		return cmdLifetimes(rest, stdout)
	default:
		return usageErr()
	}
}

func usageErr() error {
	return cliio.Usagef("usage: dtbtrace {gen|stat|convert|validate|forward|window|lifetimes} ...")
}

// newFlagSet builds a subcommand flag set that reports parse problems
// as errors (usage exit) instead of exiting past the close checks.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseArgs finishes a subcommand flag parse, folding flag errors into
// the shared exit discipline.
func parseArgs(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &cliio.UsageError{Err: err}
	}
	return nil
}

// injectPlan parses a subcommand's -inject value.
func injectPlan(spec string) (*fault.Plan, error) {
	if spec == "" {
		return nil, nil
	}
	p, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, &cliio.UsageError{Err: err}
	}
	return p, nil
}

// cmdLifetimes prints the trace's object demographics and survival
// function — the data the workload profiles are calibrated from.
func cmdLifetimes(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return cliio.Usagef("lifetimes needs exactly one trace file")
	}
	events, err := readTraceFile(args[0])
	if err != nil {
		return err
	}
	ls, err := dtbgc.MeasureLifetimes(events)
	if err != nil {
		return err
	}
	fitted, err := dtbgc.FitWorkload(events, "fitted")
	if err != nil {
		return err
	}
	return cliio.WriteTo("", stdout, nil, func(w io.Writer) error {
		fmt.Fprintf(w, "objects:        %d (mean %.0f bytes)\n", ls.TotalObjects, ls.MeanObjectBytes)
		fmt.Fprintf(w, "total bytes:    %d\n", ls.TotalBytes)
		fmt.Fprintf(w, "permanent:      %.1f%% of bytes never die\n", ls.PermanentFraction()*100)
		fmt.Fprintln(w, "survival S(age) over observed deaths (age in KB of subsequent allocation):")
		for _, ageKB := range []uint64{1, 4, 16, 64, 256, 1024, 4096} {
			fmt.Fprintf(w, "  S(%5d KB) = %.3f\n", ageKB, ls.SurvivalAt(ageKB*1024))
		}
		fmt.Fprintln(w, "fitted profile classes:")
		for _, c := range fitted.Classes {
			if c.Permanent {
				fmt.Fprintf(w, "  %.1f%% permanent\n", c.Fraction*100)
			} else {
				fmt.Fprintf(w, "  %.1f%% exponential, mean life %.0f KB\n", c.Fraction*100, c.MeanLife/1024)
			}
		}
		return nil
	})
}

// cmdWindow writes the sub-trace covering an instruction interval.
func cmdWindow(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("window", stderr)
	from := fs.Uint64("from", 0, "window start (instructions)")
	to := fs.Uint64("to", ^uint64(0), "window end (instructions)")
	out := fs.String("o", "", "output file (default stdout)")
	inject := fs.String("inject", "", "schedule deterministic I/O faults on the output (see internal/fault)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cliio.Usagef("window needs exactly one trace file")
	}
	plan, err := injectPlan(*inject)
	if err != nil {
		return err
	}
	events, err := readTraceFile(fs.Arg(0))
	if err != nil {
		return err
	}
	windowed, err := dtbgc.WindowTrace(events, *from, *to)
	if err != nil {
		return err
	}
	return cliio.WriteTo(*out, stdout, plan, func(w io.Writer) error {
		return dtbgc.WriteTrace(w, windowed)
	})
}

// cmdForward reports the §4.2 observable: how many pointer stores are
// forward in time (and so must be remembered by the DTB collector).
func cmdForward(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return cliio.Usagef("forward needs exactly one trace file")
	}
	events, err := readTraceFile(args[0])
	if err != nil {
		return err
	}
	fwd, err := dtbgc.MeasureForwardPointers(events)
	if err != nil {
		return err
	}
	return cliio.WriteTo("", stdout, nil, func(w io.Writer) error {
		fmt.Fprintf(w, "pointer stores: %d (%d nil)\n", fwd.Stores, fwd.NilStore)
		fmt.Fprintf(w, "forward:        %d (%.1f%% of non-nil)\n", fwd.Forward, fwd.ForwardFraction()*100)
		fmt.Fprintf(w, "backward:       %d\n", fwd.Backward)
		return nil
	})
}

func cmdGen(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("gen", stderr)
	workloadName := fs.String("workload", "CFRAC", "paper workload name")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	out := fs.String("o", "", "output file (default stdout)")
	text := fs.Bool("text", false, "write the text format instead of binary")
	inject := fs.String("inject", "", "schedule deterministic I/O faults on the output (see internal/fault)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	plan, err := injectPlan(*inject)
	if err != nil {
		return err
	}
	w, err := dtbgc.LookupWorkload(*workloadName)
	if err != nil {
		return err
	}
	if err := cliio.CheckScale(*scale); err != nil {
		return err
	}
	events, err := w.Scale(*scale).Generate()
	if err != nil {
		return err
	}
	return cliio.WriteTo(*out, stdout, plan, func(dst io.Writer) error {
		if *text {
			return dtbgc.WriteTraceText(dst, events)
		}
		return dtbgc.WriteTrace(dst, events)
	})
}

func readTraceFile(path string) ([]dtbgc.Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return dtbgc.ReadTrace(bytes.NewReader(data))
}

func cmdStat(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return cliio.Usagef("stat needs exactly one trace file")
	}
	events, err := readTraceFile(args[0])
	if err != nil {
		return err
	}
	res, err := dtbgc.Simulate(events, dtbgc.SimOptions{LiveOracle: true})
	if err != nil {
		return err
	}
	return cliio.WriteTo("", stdout, nil, func(w io.Writer) error {
		fmt.Fprintf(w, "events:        %d\n", len(events))
		fmt.Fprintf(w, "total alloc:   %.0f KB\n", float64(res.TotalAlloc)/1024)
		fmt.Fprintf(w, "exec time:     %.2f s (10 MIPS model)\n", res.ExecSeconds)
		fmt.Fprintf(w, "live mean/max: %.0f / %.0f KB\n", res.LiveMeanBytes/1024, res.LiveMaxBytes/1024)
		return nil
	})
}

func cmdConvert(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("convert", stderr)
	from := fs.String("from", "bin", "input format: bin or text")
	to := fs.String("to", "text", "output format: bin or text")
	inject := fs.String("inject", "", "schedule deterministic I/O faults on the output (see internal/fault)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cliio.Usagef("convert needs exactly one trace file")
	}
	plan, err := injectPlan(*inject)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var events []dtbgc.Event
	switch *from {
	case "bin":
		events, err = dtbgc.ReadTrace(bytes.NewReader(data))
	case "text":
		events, err = dtbgc.ReadTraceText(bytes.NewReader(data))
	default:
		return cliio.Usagef("unknown input format %q", *from)
	}
	if err != nil {
		return err
	}
	switch *to {
	case "bin", "text":
	default:
		return cliio.Usagef("unknown output format %q", *to)
	}
	return cliio.WriteTo("", stdout, plan, func(w io.Writer) error {
		if *to == "bin" {
			return dtbgc.WriteTrace(w, events)
		}
		return dtbgc.WriteTraceText(w, events)
	})
}

func cmdValidate(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return cliio.Usagef("validate needs exactly one trace file")
	}
	events, err := readTraceFile(args[0])
	if err != nil {
		return err
	}
	if err := dtbgc.ValidateTrace(events); err != nil {
		return err
	}
	return cliio.WriteTo("", stdout, nil, func(w io.Writer) error {
		fmt.Fprintf(w, "ok: %d events\n", len(events))
		return nil
	})
}
