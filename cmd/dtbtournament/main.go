// Command dtbtournament runs the policy tournament: every roster
// policy — the paper's Table-1 set plus the adaptive bandit and
// gradient controllers — over the paper workload corpus and a seed
// sweep, fully paired, ranked by composite memory/CPU cost with
// paired permutation tests and Benjamini–Hochberg FDR control.
//
//	dtbtournament                       # default roster × paper corpus × 8 seeds
//	dtbtournament -workloads ghost1 -seeds 4 -scale 0.02
//	dtbtournament -policies full,fixed2,bandit:eps=0.1 -json report.json
//	dtbtournament -stability            # also require split-half rank stability
//
// Exit status: 0 on a clean tournament, 1 if -stability finds the
// ranking unstable, 2 on configuration or harness error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/tournament"
	"github.com/dtbgc/dtbgc/internal/workload"
)

func main() {
	var (
		workloads = flag.String("workloads", "", "comma-separated workload names (default: all six paper profiles)")
		policies  = flag.String("policies", "", "comma-separated policy specs (default roster: "+strings.Join(tournament.DefaultRoster(), ",")+")")
		seeds     = flag.Int("seeds", 8, "seed sweep size; 8+ needed for p < 0.05 claims")
		scale     = flag.Float64("scale", 0.05, "workload scale factor")
		trigger   = flag.Uint64("trigger", 256*1024, "scavenge trigger bytes")
		alpha     = flag.Float64("alpha", 0.05, "significance level")
		workers   = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		jsonPath  = flag.String("json", "", "write the full report as JSON to this file")
		mdPath    = flag.String("md", "", "write the markdown report to this file ('-' = stdout only)")
		stability = flag.Bool("stability", false, "fail (exit 1) unless both halves of the seed sweep crown the same leader")
		quiet     = flag.Bool("q", false, "suppress the markdown report on stdout")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail("unexpected arguments %q (known policies: %s)", flag.Args(), strings.Join(core.KnownPolicies(), ", "))
	}
	if err := cliio.CheckScale(*scale); err != nil {
		fail("%v", err)
	}

	opts := tournament.Options{
		Scale:        *scale,
		TriggerBytes: *trigger,
		Alpha:        *alpha,
		Workers:      *workers,
		Seeds:        tournament.SweepSeeds(*seeds),
	}
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			prof, err := workload.ByName(name)
			if err != nil {
				fail("%v", err)
			}
			opts.Workloads = append(opts.Workloads, prof)
		}
	}
	if *policies != "" {
		opts.Policies = strings.Split(*policies, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := tournament.Run(ctx, opts)
	if err != nil {
		fail("%v", err)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fail("encoding report: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
	}
	if *mdPath != "" && *mdPath != "-" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fail("%v", err)
		}
		if err := res.WriteMarkdown(f); err != nil {
			fail("writing report: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
	}
	if !*quiet {
		if err := res.WriteMarkdown(os.Stdout); err != nil {
			fail("writing report: %v", err)
		}
	}

	if *stability {
		ok, first, second := res.SplitHalfStable()
		if !ok {
			fmt.Fprintf(os.Stderr, "dtbtournament: RANK UNSTABLE: seed halves crown %s vs %s — the leader is noise at this sweep size\n", first, second)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dtbtournament: ranking stable: both seed halves crown %s\n", first)
	}
}

// fail reports a configuration or harness error and exits 2, keeping
// exit 1 reserved for a failed stability check. Mirrors dtbaudit.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dtbtournament: "+format+"\n", args...)
	os.Exit(2)
}
