package sim

import (
	"math"
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// fleetMatrix is a config set covering every per-runner state variant
// the shared tape must stay bit-identical for: policy collectors,
// both baselines, the reference scan path, opportunistic scheduling
// and the virtual-memory model.
func fleetMatrix() []Config {
	return []Config{
		{Policy: core.Full{}, TriggerBytes: 10 * kb},
		{Policy: core.Fixed{K: 1}, TriggerBytes: 10 * kb},
		{Policy: core.DtbFM{TraceMax: 5 * kb}, TriggerBytes: 10 * kb},
		{Policy: core.DtbMem{MemMax: 40 * kb}, TriggerBytes: 10 * kb},
		{Policy: core.Full{}, TriggerBytes: 10 * kb, ReferenceScan: true},
		{Policy: core.Full{}, TriggerBytes: 10 * kb, Opportunistic: true},
		{Policy: core.Full{}, TriggerBytes: 10 * kb, PageFrames: 8, RecordCurve: true},
		{Mode: ModeNoGC},
		{Mode: ModeLive},
	}
}

// markedChurnTrace is churnTrace with Mark and PtrWrite events mixed
// in, so batch equivalence covers every event kind.
func markedChurnTrace(n int) []trace.Event {
	events := churnTrace(n, 256, 12, 40)
	out := make([]trace.Event, 0, len(events)+len(events)/5)
	for i, e := range events {
		out = append(out, e)
		if i%10 == 4 && e.Kind == trace.KindAlloc {
			out = append(out, trace.PtrWrite(e.ID, 0, e.ID, e.Instr))
		}
		if i%25 == 24 {
			out = append(out, trace.Mark("m", e.Instr))
		}
	}
	return out
}

// TestFleetMatchesSoloRuns pins the shared-tape fleet to the per-event
// reference path: every collector's Result out of a Fleet must equal
// (reflect.DeepEqual — exact bits, histories and curves included) a
// solo sim.Run over the same events, for every batch size including
// degenerate ones.
func TestFleetMatchesSoloRuns(t *testing.T) {
	events := markedChurnTrace(3000)
	cfgs := fleetMatrix()

	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustRun(t, events, cfg)
	}

	for _, batch := range []int{1, 7, 256, 4096, len(events) + 1} {
		fleet, err := NewFleet(cfgs)
		if err != nil {
			t.Fatalf("batch %d: NewFleet: %v", batch, err)
		}
		for lo := 0; lo < len(events); lo += batch {
			hi := min(lo+batch, len(events))
			if err := fleet.FeedBatch(events[lo:hi]); err != nil {
				t.Fatalf("batch %d: FeedBatch(%d:%d): %v", batch, lo, hi, err)
			}
		}
		got := fleet.Finish()
		if fleet.Events() != len(events) {
			t.Fatalf("batch %d: fleet processed %d events, want %d", batch, fleet.Events(), len(events))
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("batch %d, %s: fleet result differs from solo run\ngot  %+v\nwant %+v",
					batch, want[i].Collector, got[i], want[i])
			}
		}
	}
}

// TestFleetErrorLeavesConsistentPrefix: a validation error mid-batch
// must leave every runner having applied exactly the events before the
// offending one, and report the same error a solo Feed would.
func TestFleetErrorLeavesConsistentPrefix(t *testing.T) {
	good := churnTrace(100, kb, 5, 0)
	bad := append(append([]trace.Event{}, good...),
		trace.Free(9999, good[len(good)-1].Instr)) // free of unknown object

	cfgs := fleetMatrix()
	fleet, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ferr := fleet.FeedBatch(bad)
	if ferr == nil {
		t.Fatal("invalid free accepted")
	}
	r, err := NewRunner(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	for _, e := range bad {
		if serr = r.Feed(e); serr != nil {
			break
		}
	}
	if serr == nil || serr.Error() != ferr.Error() {
		t.Fatalf("fleet error %q, solo Feed error %q", ferr, serr)
	}
	// The valid prefix reached every runner: finishing now must match
	// solo runs over just the prefix.
	got := fleet.Finish()
	for i, cfg := range cfgs {
		want := mustRun(t, good, cfg)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: post-error fleet state differs from solo prefix run", want.Collector)
		}
	}
}

// TestFleetRunnerRejectsDirectFeed: a fleet-owned runner must refuse
// Runner.Feed — a direct feed would advance the shared tape ahead of
// the sibling runners.
func TestFleetRunnerRejectsDirectFeed(t *testing.T) {
	fleet, err := NewFleet([]Config{{Mode: ModeNoGC}})
	if err != nil {
		t.Fatal(err)
	}
	r := fleet.Runners()[0]
	if err := r.Feed(trace.Alloc(1, 8, 0)); err == nil {
		t.Fatal("direct Feed on a fleet runner accepted")
	}
	if n := fleet.Events(); n != 0 {
		t.Fatalf("rejected feeds advanced the tape to %d", n)
	}
}

// TestFeedBatchSteadyStateAllocs pins the batch hot path's allocation
// behavior: feeding events that grow no tape or runner arrays (pointer
// writes and marks) must not allocate at all, per the //dtbvet:hotpath
// contract on resolve/apply/FeedBatch — in either run mode, on a
// 64-runner fleet applying runs from their summaries, and on a
// one-runner fleet, which takes the same run loop.
func TestFeedBatchSteadyStateAllocs(t *testing.T) {
	mixed := []Config{
		{Policy: core.Full{}, TriggerBytes: 1 << 30}, // never triggers
		{Mode: ModeNoGC},
		{Mode: ModeLive},
	}
	var wide []Config
	for i := 0; i < 64; i++ {
		wide = append(wide, Config{Policy: core.Fixed{K: 1 + i%4}, TriggerBytes: 1 << 30})
	}
	instr := uint64(500 * 100)
	batch := make([]trace.Event, 64)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = trace.PtrWrite(trace.ObjectID(490+i%8), 0, 1, instr)
		} else {
			batch[i] = trace.Mark("", instr)
		}
	}
	for _, tc := range []struct {
		name    string
		cfgs    []Config
		summary bool
	}{
		{"mixed, summary apply", mixed, true},
		{"mixed, per-event apply", mixed, false},
		{"64 runners, summary apply", wide, true},
		{"one runner", mixed[:1], true},
	} {
		fleet, err := NewFleet(tc.cfgs)
		if err != nil {
			t.Fatal(err)
		}
		fleet.perEvent = !tc.summary
		if err := fleet.FeedBatch(churnTrace(500, 256, 12, 0)); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := fleet.FeedBatch(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: FeedBatch allocates %v times per steady-state batch, want 0", tc.name, allocs)
		}
	}
}

// TestFleetValidatesEveryConfigFirst: an invalid config anywhere in
// the set must fail construction before any runner (and so any probe
// stream) is created.
func TestFleetValidatesEveryConfigFirst(t *testing.T) {
	started := 0
	probe := &countingProbe{starts: &started}
	_, err := NewFleet([]Config{
		{Mode: ModeNoGC, Probe: probe},
		{Mode: ModePolicy}, // no policy: invalid
	})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if started != 0 {
		t.Fatalf("probe saw %d RunStart events before validation failed, want 0", started)
	}
}

type countingProbe struct{ starts *int }

func (p *countingProbe) RunStart(RunStart)      { *p.starts++ }
func (p *countingProbe) Decision(Decision)      {}
func (p *countingProbe) Scavenge(ScavengeEvent) {}
func (p *countingProbe) Progress(Progress)      {}
func (p *countingProbe) RunFinish(RunFinish)    {}

// TestTapeTotalsMatchLiveOracle sanity-checks the tape accounting the
// whole fleet shares: after a full replay, live bytes equal allocation
// minus frees, and the NoGC/Live results read straight off it.
func TestTapeTotalsMatchLiveOracle(t *testing.T) {
	events := churnTrace(1000, kb, 9, 13)
	var alloced, freed uint64
	sizes := map[trace.ObjectID]uint64{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindAlloc:
			alloced += e.Size
			sizes[e.ID] = e.Size
		case trace.KindFree:
			freed += sizes[e.ID]
		case trace.KindMark, trace.KindPtrWrite:
		default:
		}
	}
	fleet, err := NewFleet([]Config{{Mode: ModeNoGC}, {Mode: ModeLive}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	res := fleet.Finish()
	if res[0].TotalAlloc != alloced {
		t.Errorf("TotalAlloc = %d, want %d", res[0].TotalAlloc, alloced)
	}
	if got := fleet.tape.live; got != alloced-freed {
		t.Errorf("tape live = %d, want %d", got, alloced-freed)
	}
	if math.Float64bits(res[1].MemMaxBytes) != math.Float64bits(res[1].LiveMaxBytes) {
		t.Errorf("Live baseline max %v differs from live max %v", res[1].MemMaxBytes, res[1].LiveMaxBytes)
	}
}
