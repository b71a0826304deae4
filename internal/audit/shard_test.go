package audit

import (
	"context"
	"fmt"
	"testing"

	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/fault"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// withRuns runs fn with every fleet it builds cutting its runs at 16
// events and applying them from their summaries, or, with summary off,
// event by event. The engine builds its own fleets, so the switch is
// sim's package-level test hook.
func withRuns(summary bool, fn func()) {
	defer sim.TuneRunsForTest(summary)()
	fn()
}

// runModes are the two run-apply modes the oracle replays in.
var runModes = []bool{true, false}

// applyMode names a run mode in test failures.
func applyMode(summary bool) string {
	if summary {
		return "summary apply"
	}
	return "per-event apply"
}

// wideOptions and wideConfigs make the run-apply oracle's fan-out: the
// oracle's collector matrix four times over (44 collectors, each copy
// labelled apart, so the adaptive policies learn apart too) at a
// 64 KB trigger, as in a 64-collector sweep.
var wideOptions = Options{TriggerBytes: 64 * kb, MemMaxBytes: 256 * kb, TraceMaxBytes: 32 * kb}

func wideConfigs(name string) []sim.Config {
	var cfgs []sim.Config
	for c := 0; c < 4; c++ {
		cfgs = append(cfgs, collectorConfigs(fmt.Sprintf("%s#%d", name, c), wideOptions)...)
	}
	return cfgs
}

// TestShardedFanOutMatchesLegacyOracle is the three-way oracle across
// run-apply modes: every paper workload runs the wide matrix as one
// solo sim.Run per collector (legacy) and through the batched fan-out
// engine, its runs applied from their summaries and event by event,
// and every pass must match legacy bit for bit — DiffResults on every
// Result, DiffTelemetry line for line — with a clean auditor.
func TestShardedFanOutMatchesLegacyOracle(t *testing.T) {
	for _, base := range workload.PaperProfiles() {
		p := base.Scale(0.005)
		t.Run(p.Name, func(t *testing.T) {
			events, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs := wideConfigs(p.Name)
			legacy := runConfigs(t, cfgs, func(cfgs []sim.Config) ([]*sim.Result, error) {
				res := make([]*sim.Result, len(cfgs))
				for i, cfg := range cfgs {
					r, err := sim.Run(events, cfg)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", cfg.Label, err)
					}
					res[i] = r
				}
				return res, nil
			})
			if err := legacy.aud.Err(); err != nil {
				t.Errorf("legacy auditor: %v", err)
			}
			for _, summary := range runModes {
				var got pathRun
				withRuns(summary, func() {
					got = runConfigs(t, cfgs, func(cfgs []sim.Config) ([]*sim.Result, error) {
						return engine.ReplayBatches(context.Background(), engine.SliceBatchSource(events), cfgs)
					})
				})
				diffPaths(t, applyMode(summary), got, legacy)
			}
		})
	}
}

// TestShardedResumeUnderOracle is the resume oracle across run-apply
// modes, on the wide matrix. Seeded source faults interrupt the
// replay; the batching source flushes the events it decoded before the
// fault, so each checkpoint lands mid-batch and mostly inside a run the
// fleet had resolved ahead. The resumed replay must match the
// uninterrupted one under DiffResults and DiffTelemetry, with a clean
// auditor.
func TestShardedResumeUnderOracle(t *testing.T) {
	p := workload.Espresso2().Scale(0.005)
	events, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfgs := wideConfigs(p.Name)
	want := runConfigs(t, cfgs, func(cfgs []sim.Config) ([]*sim.Result, error) {
		return engine.ReplayBatches(ctx, engine.SliceBatchSource(events), cfgs)
	})
	for _, summary := range runModes {
		for seed := uint64(1); seed <= 3; seed++ {
			plan := fault.RandomPlan(seed, fault.SourceErr, uint64(len(events)))
			var got pathRun
			withRuns(summary, func() {
				got = runConfigs(t, cfgs, func(cfgs []sim.Config) ([]*sim.Result, error) {
					_, cp, err := engine.ReplayResumable(ctx, engine.Source(plan.Source(engine.SliceSource(events), nil)), cfgs)
					if err == nil || cp == nil {
						return nil, fmt.Errorf("interrupted replay gave err=%v, checkpoint %v", err, cp)
					}
					res, cp, err := cp.Resume(ctx, engine.Source(plan.Source(engine.SliceSource(events), nil)))
					if err != nil || cp != nil {
						return nil, fmt.Errorf("resume: %v (checkpoint %v)", err, cp)
					}
					return res, nil
				})
			})
			diffPaths(t, fmt.Sprintf("%s, seed %d", applyMode(summary), seed), got, want)
		}
	}
}

// diffPaths reports every Result and telemetry difference between two
// passes over the same configs, and any auditor finding on got.
func diffPaths(t *testing.T, name string, got, want pathRun) {
	t.Helper()
	for i := range want.res {
		label := want.res[i].Collector
		for _, d := range DiffResults(got.res[i], want.res[i]) {
			t.Errorf("%s, %s: %s", name, label, d)
		}
		for _, d := range DiffTelemetry(got.tel[i], want.tel[i]) {
			t.Errorf("%s, %s telemetry: %s", name, label, d)
		}
	}
	if err := got.aud.Err(); err != nil {
		t.Errorf("%s auditor: %v", name, err)
	}
}
