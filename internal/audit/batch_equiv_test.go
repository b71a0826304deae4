package audit

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// pathRun is one delivery path's outcome over a workload: every
// collector's result, its telemetry lines, and the auditor that
// watched the whole pass.
type pathRun struct {
	res []*sim.Result
	tel [][]string
	aud *Auditor
}

// runPath executes the collector matrix for one workload with a fresh
// auditor and a per-config telemetry stream, through whatever delivery
// mechanism run implements.
func runPath(t *testing.T, name string, opts Options,
	run func(cfgs []sim.Config) ([]*sim.Result, error)) pathRun {
	t.Helper()
	return runConfigs(t, collectorConfigs(name, opts), run)
}

// runConfigs is runPath over an explicit config set.
func runConfigs(t *testing.T, cfgs []sim.Config,
	run func(cfgs []sim.Config) ([]*sim.Result, error)) pathRun {
	t.Helper()
	aud := NewAuditor()
	bufs := make([]*bytes.Buffer, len(cfgs))
	for i := range cfgs {
		bufs[i] = &bytes.Buffer{}
		cfgs[i].Probe = sim.Probes(aud, sim.NewTelemetryWriter(bufs[i]))
	}
	res, err := run(cfgs)
	if err != nil {
		t.Fatalf("%s: %v", cfgs[0].Label, err)
	}
	tel := make([][]string, len(cfgs))
	for i := range bufs {
		tel[i] = telemetryLines(bufs[i])
	}
	return pathRun{res: res, tel: tel, aud: aud}
}

// TestBatchedFanOutMatchesLegacyOracle is the equivalence oracle for
// the batched replay engine: every paper workload, across three
// generator seeds, runs the full eight-collector matrix through three
// delivery paths —
//
//	legacy:    one solo sim.Run per collector over the materialized
//	           trace (the pre-fan-out reference semantics),
//	per-event: the fan-out engine fed single-event batches,
//	batched:   the fan-out engine fed full zero-copy batches,
//
// and all three must agree bit for bit: DiffResults on every Result
// (Float64bits, histories and curves included), DiffTelemetry line for
// line on every collector's probe stream, and a clean auditor on every
// path.
func TestBatchedFanOutMatchesLegacyOracle(t *testing.T) {
	opts := Options{TriggerBytes: 10 * kb, MemMaxBytes: 40 * kb, TraceMaxBytes: 5 * kb}
	for _, base := range workload.PaperProfiles() {
		for ds := uint64(0); ds < 3; ds++ {
			p := base.Scale(0.002)
			p.Seed = base.Seed + ds
			t.Run(fmt.Sprintf("%s/seed+%d", p.Name, ds), func(t *testing.T) {
				events, err := p.Generate()
				if err != nil {
					t.Fatalf("generate: %v", err)
				}

				legacy := runPath(t, p.Name, opts, func(cfgs []sim.Config) ([]*sim.Result, error) {
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
				perEvent := runPath(t, p.Name, opts, func(cfgs []sim.Config) ([]*sim.Result, error) {
					return engine.ReplayBatches(context.Background(),
						func(emit func([]trace.Event) error) error {
							for i := range events {
								if err := emit(events[i : i+1]); err != nil {
									return err
								}
							}
							return nil
						}, cfgs)
				})
				batched := runPath(t, p.Name, opts, func(cfgs []sim.Config) ([]*sim.Result, error) {
					return engine.ReplayBatches(context.Background(),
						engine.SliceBatchSource(events), cfgs)
				})

				for _, path := range []struct {
					name string
					got  pathRun
				}{{"per-event fan-out", perEvent}, {"batched fan-out", batched}} {
					for i := range legacy.res {
						label := legacy.res[i].Collector
						for _, d := range DiffResults(path.got.res[i], legacy.res[i]) {
							t.Errorf("%s: %s: %s", path.name, label, d)
						}
						for _, d := range DiffTelemetry(path.got.tel[i], legacy.tel[i]) {
							t.Errorf("%s: %s telemetry: %s", path.name, label, d)
						}
					}
				}
				for _, path := range []struct {
					name string
					aud  *Auditor
				}{{"legacy", legacy.aud}, {"per-event fan-out", perEvent.aud}, {"batched fan-out", batched.aud}} {
					if err := path.aud.Err(); err != nil {
						t.Errorf("%s auditor: %v", path.name, err)
					}
				}
			})
		}
	}
}
