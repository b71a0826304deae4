// Command dtbaudit runs the correctness harness: the mutation
// self-test (proving the checker can fail), then the invariant auditor
// and differential oracle over the paper workloads × all eight
// collectors (six Table-1 policies plus the NoGC and Live baselines).
//
// Usage:
//
//	dtbaudit                                # every paper workload, paper scale
//	dtbaudit -workload "ESPRESSO(2)"        # one workload
//	dtbaudit -scale 0.1 -workers 2          # faster, smaller runs
//	dtbaudit -seed 7                        # perturbed trace family
//	dtbaudit -mutate surviving-skew         # seed a fault; MUST exit non-zero
//
// For every workload the harness replays the trace through the fast
// paths (bucketed boundary queries, single-pass fan-out) under the
// live invariant auditor, re-runs every collector against the naive
// references (O(n) tail scans, solo runs, streamed chunked decoding),
// and diffs Result, History and telemetry bit for bit.
//
// The exit code is the contract: 0 means no violations and no diffs, 1
// means the audit found problems, 2 means the harness itself could not
// run. Under -mutate a fault is seeded into the auditor's view, so
// exit 1 is the expected outcome — an exit of 0 means the auditor is
// blind to that fault (CI inverts the status to catch exactly this).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/dtbgc/dtbgc/internal/audit"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", `audit one paper workload, e.g. "GHOST(1)", ESPRESSO(2), SIS, CFRAC (default: all six)`)
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
	trigger := flag.Uint64("trigger", 1<<20, "scavenge trigger in bytes")
	traceMax := flag.Uint64("tracemax", 50*1024, "FEEDMED/DTBFM trace budget in bytes")
	memMax := flag.Uint64("memmax", 3000*1024, "DTBMEM memory constraint in bytes")
	seed := flag.Uint64("seed", 0, "XOR this into every workload's generator seed (0 = the calibrated traces)")
	workers := flag.Int("workers", 0, "workloads audited concurrently (0 = GOMAXPROCS)")
	mutate := flag.String("mutate", "", fmt.Sprintf("seed this fault into the auditor's view and expect it to be caught %v", audit.Mutations()))
	noSelfTest := flag.Bool("noselftest", false, "skip the mutation self-test that precedes the audit")
	verbose := flag.Bool("v", false, "print every violation and diff, not just the first few per workload")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dtbaudit:", err)
		return 2
	}
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if err := cliio.CheckScale(*scale); err != nil {
		return fail(err)
	}

	opts := audit.Options{
		Scale:         *scale,
		TriggerBytes:  *trigger,
		TraceMaxBytes: *traceMax,
		MemMaxBytes:   *memMax,
	}

	profiles := workload.PaperProfiles()
	if *workloadName != "" {
		p, err := workload.ByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		profiles = []workload.Profile{p}
	}
	for i := range profiles {
		profiles[i].Seed ^= *seed
	}

	// -mutate: a deliberately corrupted run. Violations are the
	// expected outcome here; a clean exit means the auditor is blind.
	if *mutate != "" {
		kind, err := audit.ParseMutation(*mutate)
		if err != nil {
			return fail(err)
		}
		_, violations, err := audit.MutatedRun(profiles[0], opts, kind)
		if err != nil {
			return fail(err)
		}
		if len(violations) == 0 {
			fmt.Printf("mutation %q NOT caught: the auditor is blind to it\n", kind)
			return 0
		}
		fmt.Printf("mutation %q caught: %d violation(s)\n", kind, len(violations))
		printFindings(violations, nil, *verbose)
		return 1
	}

	// Prove the checker can fail before trusting its green.
	if !*noSelfTest {
		if err := audit.SelfTest(profiles[0], opts); err != nil {
			return fail(err)
		}
		fmt.Printf("self-test: all %d seeded mutations caught\n", len(audit.Mutations()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	reports := make([]*audit.Report, len(profiles))
	jobs := make([]engine.Job, len(profiles))
	for i, p := range profiles {
		i, p := i, p
		jobs[i] = func(ctx context.Context) error {
			rep, err := audit.AuditWorkload(ctx, p, opts)
			reports[i] = rep
			return err
		}
	}
	if err := engine.RunJobs(ctx, *workers, jobs); err != nil {
		return fail(err)
	}

	dirty := false
	for _, rep := range reports {
		status := "ok"
		if !rep.Clean() {
			status = "FAIL"
			dirty = true
		}
		fmt.Printf("%-12s %s: %d collectors, %d runs, %d violation(s), %d diff(s)\n",
			rep.Workload, status, len(rep.Collectors), rep.Runs, len(rep.Violations), len(rep.Diffs))
		printFindings(rep.Violations, rep.Diffs, *verbose)
	}
	if dirty {
		return 1
	}
	return 0
}

// printFindings lists violations and diffs, truncating unless verbose.
func printFindings(violations []audit.Violation, diffs []string, verbose bool) {
	const show = 10
	lines := make([]string, 0, len(violations)+len(diffs))
	for _, v := range violations {
		lines = append(lines, v.String())
	}
	lines = append(lines, diffs...)
	for i, l := range lines {
		if !verbose && i == show {
			fmt.Printf("  ... and %d more (use -v for all)\n", len(lines)-show)
			break
		}
		fmt.Printf("  %s\n", l)
	}
}
