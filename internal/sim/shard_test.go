package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// shardedMatrix is every per-runner state variant a fleet's sharded
// apply must leave bit-identical — pure and adaptive policies, both
// baselines, the reference scan, opportunistic marks, the vmem model
// with curves — all sharing one probe, with Progress intervals short
// enough to land between scavenges.
func shardedMatrix(probe Probe) []Config {
	cfgs := append(fleetMatrix(), adaptiveMatrix()...)
	for i := range cfgs {
		cfgs[i].Label = fmt.Sprintf("r%02d", i)
		cfgs[i].Probe = probe
		cfgs[i].ProgressBytes = uint64(i%3+1) * 8 * kb
	}
	return cfgs
}

// shardCounts are the forced shard counts every sharding test runs:
// serial, even and odd splits, and one runner per shard.
func shardCounts(runners int) []int { return []int{1, 2, 3, runners} }

// forceShards makes the fleet apply every run, however short, on k
// shards (at most one per runner), and shrinks its resolve-ahead
// buffer to 16 events, so runs cut by a full buffer come between
// nearly every pair of horizons.
func forceShards(f *Fleet, k int) {
	f.shards = min(k, len(f.runners))
	f.minShardWork = 0
	if f.buf != nil {
		f.buf = make([]resolved, 16)
	}
}

// feedShared replays events through a shardedMatrix fleet whose
// runners all write to one TelemetryWriter, in batches of the given
// size, and returns the results and the shared telemetry bytes. tune,
// if non-nil, adjusts the fleet before the first batch.
func feedShared(t *testing.T, events []trace.Event, batch int, tune func(*Fleet)) ([]*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTelemetryWriter(&buf)
	fleet, err := NewFleet(shardedMatrix(tw))
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
// at every batch size, before fleets sharded their apply.
const sharedTelemetryDigest = "4135b026659cfac655e94ac839268d7fcdc5414deff4945b3ea8346bd2548cb8"

// TestShardCountsMatchSoloRuns pins sharded apply to the per-event
// reference: at every forced shard count and batch size, every
// runner's Result equals (reflect.DeepEqual) a solo sim.Run, and the
// telemetry the runners share is the same byte stream — the lockstep
// order of every Decision, Scavenge and Progress callback across
// runners — as single-event batches give, and as lockstep replay gave.
func TestShardCountsMatchSoloRuns(t *testing.T) {
	events := markedChurnTrace(6000)
	cfgs := shardedMatrix(nil)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustRun(t, events, cfg)
	}
	_, lockstep := feedShared(t, events, 1, nil)
	if sum := sha256.Sum256(lockstep); hex.EncodeToString(sum[:]) != sharedTelemetryDigest {
		t.Errorf("single-event telemetry digest %x, want %s", sum, sharedTelemetryDigest)
	}

	for _, k := range shardCounts(len(cfgs)) {
		for _, batch := range []int{7, 256, 4096, len(events) + 1} {
			got, tel := feedShared(t, events, batch, func(f *Fleet) { forceShards(f, k) })
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("shards %d, batch %d, %s: fleet result differs from solo run", k, batch, cfgs[i].Label)
				}
			}
			if !bytes.Equal(tel, lockstep) {
				t.Errorf("shards %d, batch %d: shared telemetry (%d bytes) differs from lockstep (%d bytes)", k, batch, len(tel), len(lockstep))
			}
		}
	}
}

// TestShardCountsWithCompaction runs sharding across compaction
// epochs: the cadence check is a horizon, so retirement and rebasing
// happen between runs, never under a shard, and at exactly the events
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
	for _, k := range shardCounts(len(cfgs)) {
		for _, batch := range []int{100, 4096} {
			fleet, lockstep := newFleet(), newFleet()
			forceShards(fleet, k)
			for lo := 0; lo < len(events); lo += batch {
				hi := min(lo+batch, len(events))
				if err := fleet.FeedBatch(events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if err := lockstep.tape.feedLockstep(lockstep.runners, events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if got, want := fleet.SnapshotTapeCompaction(), lockstep.SnapshotTapeCompaction(); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards %d, batch %d, after event %d: watermark %+v, lockstep %+v", k, batch, hi, got, want)
				}
			}
			st := fleet.TapeStats()
			got := fleet.Finish()
			if st.RetiredObjects == 0 {
				t.Fatalf("shards %d, batch %d: no ordinals retired: %+v", k, batch, st)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("shards %d, batch %d, %s: compacting sharded fleet differs from uncompacted solo run", k, batch, want[i].Collector)
				}
			}
		}
	}
}

// TestShardCountsCheckpointMidRun interrupts a sharded replay at
// offsets that fall inside runs — between horizons, where the
// uninterrupted replay would still be resolving ahead — snapshots and
// restores the fleet's adaptive state and compaction watermark the way
// engine checkpoints do, and finishes the replay in other batch
// shapes. Every result must still equal a solo run.
func TestShardCountsCheckpointMidRun(t *testing.T) {
	events := markedChurnTrace(4000)
	cfgs := shardedMatrix(nil)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustRun(t, events, cfg)
	}
	for _, k := range shardCounts(len(cfgs)) {
		for _, at := range []int{1, 333, 2049, 3999} {
			fleet, err := NewFleet(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			forceShards(fleet, k)
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
					t.Errorf("shards %d, break at %d, %s: resumed fleet differs from solo run", k, at, cfgs[i].Label)
				}
			}
		}
	}
}

// TestShardedErrorLeavesConsistentPrefix: a resolve error ends the run
// it lands in; the events resolved ahead of it are applied first, so
// at every shard count the fleet stops exactly where a solo Feed does.
func TestShardedErrorLeavesConsistentPrefix(t *testing.T) {
	good := markedChurnTrace(1500)
	bad := append(append([]trace.Event{}, good...), trace.Free(9999, good[len(good)-1].Instr))
	cfgs := shardedMatrix(nil)
	for _, k := range shardCounts(len(cfgs)) {
		fleet, err := NewFleet(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		forceShards(fleet, k)
		if err := fleet.FeedBatch(bad); err == nil || err.Error() != fmt.Sprintf("sim: event %d: free of unknown object 9999", len(good)) {
			t.Fatalf("shards %d: error %v", k, err)
		}
		got := fleet.Finish()
		for i, cfg := range cfgs {
			if want := mustRun(t, good, cfg); !reflect.DeepEqual(got[i], want) {
				t.Errorf("shards %d, %s: post-error fleet differs from solo prefix run", k, cfg.Label)
			}
		}
	}
}

// TestFeedBatchJoinsShardGoroutines: FeedBatch joins every shard
// goroutine it launches before returning, so none outlives the call.
// A goroutine lingers for a moment after its join signal while it
// exits, so the count gets a short grace period to settle.
func TestFeedBatchJoinsShardGoroutines(t *testing.T) {
	events := markedChurnTrace(3000)
	cfgs := shardedMatrix(nil)
	fleet, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	forceShards(fleet, len(cfgs))
	base := runtime.NumGoroutine()
	for lo := 0; lo < len(events); lo += 512 {
		if err := fleet.FeedBatch(events[lo:min(lo+512, len(events))]); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after FeedBatch(%d:), %d goroutines are running, %d before it", lo, n, base)
		}
	}
	fleet.Finish()
}

// TestOneRunnerFleetNeverShards: a fleet of one — every dtbd request's
// shape — feeds in lockstep, with no resolve-ahead buffer and no shard
// to launch.
func TestOneRunnerFleetNeverShards(t *testing.T) {
	fleet, err := NewFleet([]Config{{Policy: core.Full{}, TriggerBytes: 10 * kb}})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.buf != nil || fleet.shards != 0 {
		t.Fatalf("one-runner fleet has a %d-event buffer and %d shards", len(fleet.buf), fleet.shards)
	}
}

// TestFleetShardsFollowGOMAXPROCS: a fleet applies its runs on
// min(GOMAXPROCS, runners) shards, fixed when it is built — the knob
// the audit oracle turns to replay at chosen shard counts.
func TestFleetShardsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, tc := range []struct{ runners, want int }{{2, 2}, {3, 3}, {13, 3}} {
		fleet, err := NewFleet(shardedMatrix(nil)[:tc.runners])
		if err != nil {
			t.Fatal(err)
		}
		if fleet.shards != tc.want {
			t.Errorf("%d runners at GOMAXPROCS 3: %d shards, want %d", tc.runners, fleet.shards, tc.want)
		}
	}
}
