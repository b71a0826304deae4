package sim_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/dtbgc/dtbgc/internal/audit"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// wideGapTrace is a seeded trace of n events whose memory integrals
// cross 2^53 partway through: instruction gaps drawn log-uniformly
// from 2^20 to 2^34, a fifth of the allocs and frees at the same
// instruction as the event before, frees of random live objects, and
// now and then a burst made only of pointer writes and marks. Sizes
// are below maxSize.
func wideGapTrace(seed uint64, n int, maxSize int) []trace.Event {
	rng := xrand.New(seed)
	var events []trace.Event
	var live []trace.ObjectID
	next := trace.ObjectID(1)
	instr := uint64(0)
	gap := func() uint64 {
		if rng.Bool(0.2) {
			return 0
		}
		shift := uint(20 + rng.Intn(15))
		return 1<<shift + uint64(rng.Int63n(1<<shift))
	}
	for len(events) < n {
		switch r := rng.Intn(100); {
		case r < 5:
			instr += gap()
			for k := 4 + rng.Intn(30); k > 0; k-- {
				if rng.Bool(0.5) && len(live) > 0 {
					events = append(events, trace.PtrWrite(live[rng.Intn(len(live))], 0, trace.NilObject, instr))
				} else {
					events = append(events, trace.Mark("", instr))
				}
				instr += uint64(rng.Intn(3))
			}
		case r < 60 || len(live) == 0:
			instr += gap()
			events = append(events, trace.Alloc(next, uint64(8+rng.Intn(maxSize-8)), instr))
			live = append(live, next)
			next++
		default:
			instr += gap()
			i := rng.Intn(len(live))
			events = append(events, trace.Free(live[i], instr))
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return events[:n]
}

// windowConfigs are the six paper policies plus NoGC and Live at one
// trigger, with a Progress interval, so both the probe and the run
// horizons it adds are covered.
func windowConfigs(trigger uint64) []sim.Config {
	var cfgs []sim.Config
	for _, p := range []core.Policy{
		core.Full{}, core.Fixed{K: 1}, core.Fixed{K: 4},
		core.DtbMem{MemMax: 4 * trigger}, core.FeedMed{TraceMax: trigger / 2}, core.DtbFM{TraceMax: trigger / 2},
	} {
		cfgs = append(cfgs, sim.Config{Policy: p})
	}
	cfgs = append(cfgs, sim.Config{Mode: sim.ModeNoGC}, sim.Config{Mode: sim.ModeLive})
	for i := range cfgs {
		cfgs[i].TriggerBytes = trigger
		cfgs[i].ProgressBytes = 3 * trigger
		cfgs[i].Label = fmt.Sprintf("%d/%d", trigger, i)
	}
	return cfgs
}

// TestRunSummaryMatchesReferenceAcrossExactWindow: on traces whose
// memory integrals cross 2^53 partway through — where summing a run
// exactly and observing it point by point in floats part ways — a
// fleet applying runs from their summaries, in production run lengths
// and fed in uneven batches, still matches the audit oracle's solo
// reference leg bit for bit, telemetry included. Every memory
// statistic but Live's (which has none of its own) leaves the exact
// window on these traces, so every summarizing runner kind has to hand
// its runs back to per-event apply.
func TestRunSummaryMatchesReferenceAcrossExactWindow(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		events := wideGapTrace(seed, 3000, 2048)
		span := float64(events[len(events)-1].Instr - events[0].Instr)
		for _, trigger := range []uint64{8 << 10, 32 << 10} {
			cfgs := windowConfigs(trigger)
			want := referenceRun(t, events, cfgs, true)
			got := fleetBatches(t, events, cfgs, 97)
			if want.err != nil || got.err != nil {
				t.Fatalf("seed %d: reference error %v, fleet error %v", seed, want.err, got.err)
			}
			for i, cfg := range cfgs {
				if cfg.Mode != sim.ModeLive && !(want.res[i].MemMeanBytes*span > 1<<53) {
					t.Errorf("seed %d, %s: memory integral %.3g stays inside 2^53", seed, cfg.Label, want.res[i].MemMeanBytes*span)
				}
				for _, d := range audit.DiffResults(got.res[i], want.res[i]) {
					t.Errorf("seed %d, %s: %s", seed, cfg.Label, d)
				}
				for _, d := range audit.DiffTelemetry(got.tel[i], want.tel[i]) {
					t.Errorf("seed %d, %s telemetry: %s", seed, cfg.Label, d)
				}
			}
		}
	}
}

// TestSoloRunnerFeedsInLockstep: a solo runner is the reference leg
// that resolving ahead and summary apply are diffed against, so its
// fleet of one must resolve one event at a time and apply it event by
// event, also while TuneRunsForTest tunes every other fleet. No result
// can tell lockstep from the fast path; only this test can.
func TestSoloRunnerFeedsInLockstep(t *testing.T) {
	for _, tuned := range []bool{false, true} {
		restore := func() {}
		if tuned {
			restore = sim.TuneRunsForTest(true)
		}
		r, err := sim.NewRunner(sim.Config{Policy: core.Full{}})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if ahead, perEvent := sim.SoloRuns(r); ahead != 1 || !perEvent {
			t.Errorf("tuned %v: solo runner resolves ahead %d events, per-event apply %v; want 1, true", tuned, ahead, perEvent)
		}
	}
}

// fleetBatches replays events through one fleet at its production
// settings, with a telemetry stream per config, in batches of batch
// events.
func fleetBatches(t *testing.T, events []trace.Event, cfgs []sim.Config, batch int) fuzzRun {
	cfgs, bufs := withTelemetry(cfgs, true)
	fleet, err := sim.NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var run fuzzRun
	for lo := 0; lo < len(events) && run.err == nil; lo += batch {
		run.err = fleet.FeedBatch(events[lo:min(lo+batch, len(events))])
	}
	run.events = fleet.Events()
	run.res = fleet.Finish()
	for _, b := range bufs {
		run.tel = append(run.tel, lines(b))
	}
	return run
}

// TestFullScaleGhost2FleetMatchesReference is the real-trace witness:
// at paper scale, GHOST(2)'s NoGC memory integral passes 2^53 while
// the policy runners stay inside, so the fan-out mixes summary and
// per-event apply. The audit oracle's fleet must match its solo
// reference leg on every collector it runs.
func TestFullScaleGhost2FleetMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale GHOST(2) replay")
	}
	report, err := audit.AuditWorkload(context.Background(), workload.Ghost2(), audit.Options{ChunkSizes: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
}
