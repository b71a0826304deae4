// Package cliio is the shared command-line I/O discipline for the cmd/
// tools: checked output streams, uniform exit codes, the -cpuprofile
// and -memprofile profiles, and the run summary dtbsim and dtbd eval
// both print.
//
// The bug class this package exists to kill: a tool that writes its
// output through `defer f.Close()` exits 0 on a full disk, leaving a
// silently truncated file. Close is where buffered-write failures
// (ENOSPC at the final flush) surface, so an unchecked Close converts
// an I/O failure into a plausible-looking partial output. Every output
// stream here is an Output: writes are buffered, Close flushes and
// verifies every layer, and the error lands in the tool's exit code.
//
// The exit discipline, shared by every tool:
//
//	0  success — including a recovered run whose drops are accounted
//	1  operational failure (I/O error, failed run, audit violation)
//	2  usage error (bad flags or arguments)
//
// Outputs compose with internal/fault: passing a non-nil plan wraps
// the stream with the plan's write-side faults, which is how the CLI
// tests prove the Close checks actually fire.
package cliio

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/dtbgc/dtbgc/internal/fault"
	"github.com/dtbgc/dtbgc/internal/sim"
)

// UsageError marks a command-line mistake, exiting 2 where an
// operational failure exits 1 — so scripts can tell "you invoked me
// wrong" from "I tried and failed".
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// CheckScale vets a -scale flag: a workload scale factor must be
// positive and finite. Zero, a negative value or NaN would panic in
// the workload's Scale, and an infinite one would generate without
// end.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return Usagef("-scale %v: want a positive, finite factor", scale)
	}
	return nil
}

// ExitCode maps a run's error to the shared exit discipline: nil is 0,
// a UsageError is 2, flag.ErrHelp (the user asked for -h) is 0, and
// anything else is 1.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	default:
		var ue *UsageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
}

// Conflict declares two flags that cannot be combined, and the reason
// a user sees when they are.
type Conflict struct {
	A, B   string
	Reason string
}

// Conflicts rejects any declared pair whose flags were BOTH set on the
// command line. The check is set-ness, not value: an explicit
// `-flag ""` still counts as asking for it, and boolean flags work
// without a sentinel value. The CLIs used to hand-roll these checks
// and drift let real pairs slip through silently — a dropped flag
// yields a plausible-looking result for a run the user did not ask
// for. A conflict naming a flag that does not exist in fs panics:
// that is table drift after a rename, a programmer error no user
// input should be able to hide.
//
// Call after fs.Parse:
//
//	if err := cliio.Conflicts(fs,
//		cliio.Conflict{A: "policy", B: "baseline", Reason: "a run is driven by one or the other"},
//	); err != nil {
//		return err
//	}
func Conflicts(fs *flag.FlagSet, conflicts ...Conflict) error {
	for _, c := range conflicts {
		fa, fb := fs.Lookup(c.A), fs.Lookup(c.B)
		if fa == nil || fb == nil {
			missing := c.A
			if fa != nil {
				missing = c.B
			}
			panic(fmt.Sprintf("cliio: conflict table names unknown flag -%s", missing))
		}
		if FlagWasSet(fs, c.A) && FlagWasSet(fs, c.B) {
			return Usagef("-%s %q conflicts with -%s %q: %s",
				c.A, fa.Value.String(), c.B, fb.Value.String(), c.Reason)
		}
	}
	return nil
}

// FlagWasSet reports whether the named flag appeared on the command
// line (as opposed to holding its default).
func FlagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// CloseChecked closes c and folds a close failure into *errp unless an
// earlier error is already there — the deferred-close shape that does
// not eat ENOSPC:
//
//	defer cliio.CloseChecked(path, f, &err)
func CloseChecked(name string, c io.Closer, errp *error) {
	if err := c.Close(); err != nil && *errp == nil {
		*errp = fmt.Errorf("close %s: %w", name, err)
	}
}

// Output is one checked output stream. Writes are buffered (and
// fault-wrapped when a plan is given); Close flushes and verifies
// every layer, so no byte is silently lost between the tool and the
// file system. A write error is sticky in the buffer and resurfaces at
// Close even if intermediate Fprintf results were ignored.
type Output struct {
	name string
	bw   *bufio.Writer
	fw   *fault.Writer
	f    *os.File // nil when writing to a caller-owned stream
}

// Create opens a checked output: a file at path, or the fallback
// stream (typically os.Stdout) when path is "" or "-". A nil plan
// injects nothing.
func Create(path string, fallback io.Writer, plan *fault.Plan) (*Output, error) {
	o := &Output{name: path}
	if path == "" || path == "-" {
		if fallback == nil {
			return nil, fmt.Errorf("cliio: no output path and no fallback stream")
		}
		o.name = "stdout"
		o.fw = plan.Writer(fallback)
	} else {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		o.f = f
		o.fw = plan.Writer(f)
	}
	o.bw = bufio.NewWriter(o.fw)
	return o, nil
}

// Name returns the stream's display name ("stdout" or the path).
func (o *Output) Name() string { return o.name }

// Write implements io.Writer.
func (o *Output) Write(p []byte) (int, error) { return o.bw.Write(p) }

// Close flushes the buffer and closes every layer, returning the first
// failure: a sticky buffered-write error, an injected close fault, or
// the file's own Close (where ENOSPC surfaces for deferred writeback).
func (o *Output) Close() (err error) {
	if o.f != nil {
		defer CloseChecked(o.name, o.f, &err)
	}
	if ferr := o.bw.Flush(); ferr != nil {
		return fmt.Errorf("write %s: %w", o.name, ferr)
	}
	if cerr := o.fw.Close(); cerr != nil {
		return fmt.Errorf("close %s: %w", o.name, cerr)
	}
	return nil
}

// WriteTo runs fn against a checked output at path (or fallback for ""
// and "-") and returns the first error from fn, the flush, or the
// closes. It is the one-shot shape for "produce this file" commands.
func WriteTo(path string, fallback io.Writer, plan *fault.Plan, fn func(io.Writer) error) (err error) {
	o, err := Create(path, fallback, plan)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := o.Close(); err == nil {
			err = cerr
		}
	}()
	if err := fn(o); err != nil {
		return fmt.Errorf("%s: %w", o.Name(), err)
	}
	return nil
}

// Profile runs work under the pprof profiles a command's -cpuprofile
// and -memprofile flags name: a CPU profile of work written to cpuPath,
// then, once work has succeeded, a heap profile to memPath. An empty
// path skips that profile. The CPU profile stops and its file is
// close-checked on the failure paths too, so a failed run still
// leaves a readable profile and a full disk still fails the command.
func Profile(cpuPath, memPath string, plan *fault.Plan, work func() error) (err error) {
	if cpuPath != "" {
		out, cerr := Create(cpuPath, nil, plan)
		if cerr != nil {
			return cerr
		}
		if perr := pprof.StartCPUProfile(out); perr != nil {
			//dtbvet:ignore errsink -- cleanup after StartCPUProfile failed: perr wins and nothing was written yet
			out.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if err := work(); err != nil {
		return err
	}
	if memPath == "" {
		return nil
	}
	return WriteTo(memPath, nil, plan, func(w io.Writer) error {
		runtime.GC() // settle allocations so the profile shows retained heap
		return pprof.WriteHeapProfile(w)
	})
}

// PrintSummary writes the human summary of one run, the block dtbsim
// prints and dtbd eval repeats byte for byte for the same run. Write
// errors stick in an enclosing Output and surface at its Close.
func PrintSummary(w io.Writer, res *sim.Result) {
	fmt.Fprintf(w, "collector:      %s\n", res.Collector)
	fmt.Fprintf(w, "total alloc:    %.0f KB over %.1f s (model time)\n", float64(res.TotalAlloc)/1024, res.ExecSeconds)
	fmt.Fprintf(w, "memory mean/max: %.0f / %.0f KB\n", res.MemMeanBytes/1024, res.MemMaxBytes/1024)
	fmt.Fprintf(w, "live   mean/max: %.0f / %.0f KB\n", res.LiveMeanBytes/1024, res.LiveMaxBytes/1024)
	fmt.Fprintf(w, "collections:    %d\n", res.Collections)
	if res.Collections > 0 {
		fmt.Fprintf(w, "pauses p50/p90: %.0f / %.0f ms\n", res.MedianPauseSeconds()*1000, res.P90PauseSeconds()*1000)
		fmt.Fprintf(w, "traced total:   %.0f KB (overhead %.1f%%)\n", float64(res.TracedTotalBytes)/1024, res.OverheadPct)
	}
	if res.PageAccesses > 0 {
		fmt.Fprintf(w, "page faults:    %d of %d accesses (%.2f%%)\n",
			res.PageFaults, res.PageAccesses, 100*float64(res.PageFaults)/float64(res.PageAccesses))
	}
}
