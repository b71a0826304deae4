package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// runMatrix is every per-runner state variant a fleet's run apply must
// leave bit-identical — pure and adaptive policies, both baselines,
// the reference scan (all of which apply runs from their summaries),
// opportunistic marks and the vmem model with curves (which apply them
// event by event) — all sharing one probe, with Progress intervals
// short enough to land between scavenges.
func runMatrix(probe Probe) []Config {
	cfgs := append(fleetMatrix(), adaptiveMatrix()...)
	for i := range cfgs {
		cfgs[i].Label = fmt.Sprintf("r%02d", i)
		cfgs[i].Probe = probe
		cfgs[i].ProgressBytes = uint64(i%3+1) * 8 * kb
	}
	return cfgs
}

// runModes are the two ways every run-apply test applies runs: from
// their summaries where a runner takes them, and event by event on
// every runner (tuneRuns's summary argument).
var runModes = []bool{true, false}

// applyMode names a run mode in test failures.
func applyMode(summary bool) string {
	if summary {
		return "summary apply"
	}
	return "per-event apply"
}

// feedShared replays events through a runMatrix fleet whose
// runners all write to one TelemetryWriter, in batches of the given
// size, and returns the results and the shared telemetry bytes. tune,
// if non-nil, adjusts the fleet before the first batch.
func feedShared(t *testing.T, events []trace.Event, batch int, tune func(*Fleet)) ([]*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTelemetryWriter(&buf)
	fleet, err := NewFleet(runMatrix(tw))
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(fleet)
	}
	for lo := 0; lo < len(events); lo += batch {
		if err := fleet.FeedBatch(events[lo:min(lo+batch, len(events))]); err != nil {
			t.Fatalf("FeedBatch(%d:): %v", lo, err)
		}
	}
	res := fleet.Finish()
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// sharedTelemetryDigest is the SHA-256 of the shared telemetry stream
// feedShared writes for markedChurnTrace(6000), as the lockstep fleet
// (one event resolved and applied to every runner at a time) wrote it,
// at every batch size, before fleets resolved ahead.
const sharedTelemetryDigest = "4135b026659cfac655e94ac839268d7fcdc5414deff4945b3ea8346bd2548cb8"

// TestShardCountsMatchSoloRuns pins run apply to the per-event
// reference: applying runs from their summaries and event by event, at
// every batch size, every runner's Result equals (reflect.DeepEqual) a
// solo sim.Run, and the telemetry the runners share is the same byte
// stream — the lockstep order of every Decision, Scavenge and Progress
// callback across runners — as single-event batches give, and as
// lockstep replay gave.
func TestShardCountsMatchSoloRuns(t *testing.T) {
	events := markedChurnTrace(6000)
	cfgs := runMatrix(nil)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustRun(t, events, cfg)
	}
	_, lockstep := feedShared(t, events, 1, nil)
	if sum := sha256.Sum256(lockstep); hex.EncodeToString(sum[:]) != sharedTelemetryDigest {
		t.Errorf("single-event telemetry digest %x, want %s", sum, sharedTelemetryDigest)
	}

	for _, summary := range runModes {
		for _, batch := range []int{7, 256, 4096, len(events) + 1} {
			got, tel := feedShared(t, events, batch, func(f *Fleet) { tuneRuns(f, summary) })
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s, batch %d, %s: fleet result differs from solo run", applyMode(summary), batch, cfgs[i].Label)
				}
			}
			if !bytes.Equal(tel, lockstep) {
				t.Errorf("%s, batch %d: shared telemetry (%d bytes) differs from lockstep (%d bytes)", applyMode(summary), batch, len(tel), len(lockstep))
			}
		}
	}
}

// TestShardCountsWithCompaction runs run apply across compaction
// epochs: the cadence check is a horizon, so retirement and rebasing
// happen between runs, never inside one, and at exactly the events
// lockstep feeding compacts at — the watermark after every batch
// equals that of the same runner set fed one event at a time.
func TestShardCountsWithCompaction(t *testing.T) {
	events := compactingChurnTrace(20000)
	cfgs := reclaimingMatrix()
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg.UncompactedTape = true
		want[i] = mustRun(t, events, cfg)
	}
	newFleet := func() *Fleet {
		fleet, err := NewFleet(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		fleet.tape.checkEvery = 64
		fleet.tape.minRetire = 64
		return fleet
	}
	for _, summary := range runModes {
		for _, batch := range []int{100, 4096} {
			fleet, lockstep := newFleet(), newFleet()
			tuneRuns(fleet, summary)
			lockstep.lockstep()
			for lo := 0; lo < len(events); lo += batch {
				hi := min(lo+batch, len(events))
				if err := fleet.FeedBatch(events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if err := lockstep.FeedBatch(events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if got, want := fleet.SnapshotTapeCompaction(), lockstep.SnapshotTapeCompaction(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, batch %d, after event %d: watermark %+v, lockstep %+v", applyMode(summary), batch, hi, got, want)
				}
			}
			st := fleet.TapeStats()
			got := fleet.Finish()
			if st.RetiredObjects == 0 {
				t.Fatalf("%s, batch %d: no ordinals retired: %+v", applyMode(summary), batch, st)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s, batch %d, %s: compacting fleet differs from uncompacted solo run", applyMode(summary), batch, want[i].Collector)
				}
			}
		}
	}
}

// TestShardCountsCheckpointMidRun interrupts a replay at offsets that
// fall inside runs — between horizons, where the uninterrupted replay
// would still be resolving ahead — snapshots and restores the fleet's
// adaptive state and compaction watermark the way engine checkpoints
// do, and finishes the replay in other batch shapes. Every result must
// still equal a solo run.
func TestShardCountsCheckpointMidRun(t *testing.T) {
	events := markedChurnTrace(4000)
	cfgs := runMatrix(nil)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustRun(t, events, cfg)
	}
	for _, summary := range runModes {
		for _, at := range []int{1, 333, 2049, 3999} {
			fleet, err := NewFleet(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			tuneRuns(fleet, summary)
			fleet.tape.checkEvery = 128
			if err := fleet.FeedBatch(events[:at]); err != nil {
				t.Fatal(err)
			}
			policy, tape := fleet.SnapshotPolicyState(), fleet.SnapshotTapeCompaction()
			if err := fleet.RestorePolicyState(policy); err != nil {
				t.Fatal(err)
			}
			if err := fleet.RestoreTapeCompaction(tape); err != nil {
				t.Fatal(err)
			}
			for lo := at; lo < len(events); lo += 500 {
				if err := fleet.FeedBatch(events[lo:min(lo+500, len(events))]); err != nil {
					t.Fatal(err)
				}
			}
			got := fleet.Finish()
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s, break at %d, %s: resumed fleet differs from solo run", applyMode(summary), at, cfgs[i].Label)
				}
			}
		}
	}
}

// TestShardedErrorLeavesConsistentPrefix: a resolve error ends the run
// it lands in; the events resolved ahead of it are applied first, so
// in either run mode the fleet stops exactly where a solo Feed does.
func TestShardedErrorLeavesConsistentPrefix(t *testing.T) {
	good := markedChurnTrace(1500)
	bad := append(append([]trace.Event{}, good...), trace.Free(9999, good[len(good)-1].Instr))
	cfgs := runMatrix(nil)
	for _, summary := range runModes {
		fleet, err := NewFleet(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		tuneRuns(fleet, summary)
		if err := fleet.FeedBatch(bad); err == nil || err.Error() != fmt.Sprintf("sim: event %d: free of unknown object 9999", len(good)) {
			t.Fatalf("%s: error %v", applyMode(summary), err)
		}
		got := fleet.Finish()
		for i, cfg := range cfgs {
			if want := mustRun(t, good, cfg); !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s, %s: post-error fleet differs from solo prefix run", applyMode(summary), cfg.Label)
			}
		}
	}
}
