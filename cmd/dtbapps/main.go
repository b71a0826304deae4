// Command dtbapps runs the mini-applications — the stand-ins for the
// paper's GhostScript, Espresso, SIS and Cfrac workloads — on the
// simulated managed heap, and writes the allocation trace each run
// produces. Those traces can then drive the simulator via dtbsim.
//
// Usage:
//
//	dtbapps ghost   [-pages N] [-seed S] [-o trace.dtbt]
//	dtbapps espresso [-problems N] [-vars V] [-cubes C] [-seed S] [-o trace.dtbt]
//	dtbapps sis     [-gates N] [-latches L] [-vectors V] [-seed S] [-o trace.dtbt]
//	dtbapps cfrac   [-n NUMBER] [-o trace.dtbt]
//
// `dtbtables -apps` runs the evaluation over these applications'
// traces.
//
// Every output is checked through to Close — a full disk fails the
// command with a non-zero exit instead of leaving a silently
// truncated trace. Each subcommand takes -inject SPEC to schedule
// deterministic I/O faults (see internal/fault). Exit status: 0
// success, 1 operational failure, 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/apps/cfrac"
	"github.com/dtbgc/dtbgc/internal/apps/circuit"
	"github.com/dtbgc/dtbgc/internal/apps/logicmin"
	"github.com/dtbgc/dtbgc/internal/apps/psint"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/fault"
	"github.com/dtbgc/dtbgc/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dtbapps:", err)
	}
	os.Exit(cliio.ExitCode(err))
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return cliio.Usagef("usage: dtbapps {ghost|espresso|sis|cfrac} [flags]")
	}

	var events []trace.Event
	var summary string
	var err error
	var out, inject string

	switch cmd, rest := args[0], args[1:]; cmd {
	case "ghost":
		fs := newFlagSet("ghost", stderr)
		pages := fs.Int("pages", 40, "pages to interpret")
		seed := fs.Uint64("seed", 1, "document seed")
		doc := fs.String("doc", "manual", "document type: manual (text-heavy) or thesis (graphics-heavy)")
		o := fs.String("o", "", "trace output file (default stdout)")
		inj := fs.String("inject", "", "schedule deterministic I/O faults on the output (see internal/fault)")
		if err := parseArgs(fs, rest); err != nil {
			return err
		}
		out, inject = *o, *inj
		var src string
		switch *doc {
		case "manual":
			src = psint.GenerateDocument(*pages, *seed)
		case "thesis":
			src = psint.GenerateDrawing(*pages, *seed)
		default:
			return cliio.Usagef("unknown document type %q", *doc)
		}
		var res *psint.Result
		res, err = psint.RunDocument(src)
		if res != nil {
			events = res.Events
			summary = fmt.Sprintf("ghost: %d pages, %d operations, checksum %.2f", res.Pages, res.OpCount, res.Checksum)
		}
	case "espresso":
		fs := newFlagSet("espresso", stderr)
		problems := fs.Int("problems", 12, "PLA problems to minimize")
		vars := fs.Int("vars", 9, "inputs per PLA")
		cubes := fs.Int("cubes", 18, "ON cubes per PLA")
		outputs := fs.Int("outputs", 1, "outputs per PLA (multi-output minimizes each independently)")
		seed := fs.Uint64("seed", 1, "generator seed")
		o := fs.String("o", "", "trace output file (default stdout)")
		inj := fs.String("inject", "", "schedule deterministic I/O faults on the output (see internal/fault)")
		if err := parseArgs(fs, rest); err != nil {
			return err
		}
		out, inject = *o, *inj
		plas := make([]string, *problems)
		var res *logicmin.Result
		if *outputs <= 1 {
			for i := range plas {
				plas[i] = logicmin.GeneratePLA(*vars, *cubes, 3, *seed+uint64(i))
			}
			res, err = logicmin.RunBatch(plas, 500)
		} else {
			for i := range plas {
				plas[i] = logicmin.GenerateMultiPLA(*vars, *outputs, *cubes, *seed+uint64(i))
			}
			res, err = logicmin.RunMultiBatch(plas, 500)
		}
		if res != nil {
			events = res.Events
			summary = fmt.Sprintf("espresso: %d problems, %d cubes in, %d out", *problems, res.CubesIn, res.CubesOut)
		}
	case "sis":
		fs := newFlagSet("sis", stderr)
		gates := fs.Int("gates", 600, "gates in the synthesized circuit")
		latches := fs.Int("latches", 16, "latches")
		vectors := fs.Int("vectors", 1024, "random verification vectors")
		seed := fs.Uint64("seed", 1, "circuit seed")
		o := fs.String("o", "", "trace output file (default stdout)")
		inj := fs.String("inject", "", "schedule deterministic I/O faults on the output (see internal/fault)")
		if err := parseArgs(fs, rest); err != nil {
			return err
		}
		out, inject = *o, *inj
		blif := circuit.GenerateBLIF(24, *gates, *latches, *seed)
		var res *circuit.Result
		res, err = circuit.Run(blif, *vectors)
		if res != nil {
			events = res.Events
			summary = fmt.Sprintf("sis: %d nodes, %d removed by sweep, signature %x", res.Gates, res.Removed, res.Signature)
		}
	case "cfrac":
		fs := newFlagSet("cfrac", stderr)
		n := fs.String("n", "998244359987710471", "number to factor")
		o := fs.String("o", "", "trace output file (default stdout)")
		inj := fs.String("inject", "", "schedule deterministic I/O faults on the output (see internal/fault)")
		if err := parseArgs(fs, rest); err != nil {
			return err
		}
		out, inject = *o, *inj
		var f1, f2 string
		f1, f2, events, err = cfrac.Factor(*n, cfrac.Config{})
		if err == nil {
			summary = fmt.Sprintf("cfrac: %s = %s * %s", *n, f1, f2)
		}
	default:
		return cliio.Usagef("usage: dtbapps {ghost|espresso|sis|cfrac} [flags]")
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, summary)

	plan, err := injectPlan(inject)
	if err != nil {
		return err
	}
	return cliio.WriteTo(out, stdout, plan, func(w io.Writer) error {
		return dtbgc.WriteTrace(w, events)
	})
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
