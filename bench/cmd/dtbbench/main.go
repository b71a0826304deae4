// Command dtbbench runs the repository's benchmark (package bench).
//
// Usage:
//
//	dtbbench --workload W --seed S --seconds N --trace 0|1 [--spans-dir DIR]
//	dtbbench compare [--bench BENCHMARK.json] PARENT.out... -- CHANGE.out...
//	dtbbench --update-golden bench/golden.json [--seconds N]
//
// A run prints two JSON lines: a header (workload, seed, result digest,
// sample counts, problems found) and the result ({correct, attempted,
// failed, metrics}). An untraced run reports the end-to-end metrics, a
// traced run (--trace 1) the per-layer ones, and writes its spans to
// DIR/<workload>-seed<S>.json when --spans-dir is given. The exit
// status is 1 when a result failed verification.
//
// compare reads saved outputs of runs of two builds and prints, per
// workload and metric, both sides' median and quartiles and a verdict
// (better, same, worse, unresolved) under BENCHMARK.json's bounds; it
// exits 1 when any row is worse.
//
// --update-golden reruns every workload at the golden seeds, each a
// full run of --seconds, and rewrites the digest file the runs compare
// against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"github.com/dtbgc/dtbgc/bench"
	"github.com/dtbgc/dtbgc/internal/cliio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtbbench:", err)
		os.Exit(cliio.ExitCode(err))
	}
}

func run(args []string) error {
	// The benchmark's load is defined for two CPUs, whatever the host.
	runtime.GOMAXPROCS(2)
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:])
	}
	fs := flag.NewFlagSet("dtbbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 0, "input seed, added to every generator seed (0 = the paper's traces)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 for a traced run, which prints the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory a traced run writes its spans to")
	golden := fs.String("update-golden", "", "rerun every workload at the golden seeds and write the digests to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cliio.Usagef("%v", err)
	}
	if fs.NArg() > 0 {
		return cliio.Usagef("unexpected arguments %q", fs.Args())
	}
	ctx := context.Background()
	if *golden != "" {
		return bench.UpdateGolden(ctx, *golden, *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return cliio.Usagef("--trace %d: want 0 or 1", *traced)
	}
	p := bench.Params{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1}
	if p.Trace && *spansDir != "" {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			return err
		}
		p.SpansPath = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", p.Workload, p.Seed))
	}
	h, res, err := bench.Run(ctx, p)
	if err != nil {
		return err
	}
	if err := cliio.WriteTo("", os.Stdout, nil, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(h); err != nil {
			return err
		}
		return enc.Encode(res)
	}); err != nil {
		return err
	}
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed verification", p.Workload, res.Failed, res.Attempted)
	}
	return nil
}

func compare(args []string) error {
	fs := flag.NewFlagSet("dtbbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition whose bounds the verdicts use")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cliio.Usagef("%v", err)
	}
	rest := fs.Args()
	cut := slices.Index(rest, "--")
	if cut <= 0 || cut == len(rest)-1 {
		return cliio.Usagef("usage: dtbbench compare [--bench BENCHMARK.json] PARENT.out... -- CHANGE.out...")
	}
	spec, err := bench.ReadSpec(*specPath)
	if err != nil {
		return err
	}
	worse, err := bench.Compare(os.Stdout, spec, rest[:cut], rest[cut+1:])
	if err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d row(s) worse", worse)
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(bench.Workloads))
	for i, w := range bench.Workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
