package sim

import (
	"reflect"
	"slices"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// scriptedBoundary is a test policy whose boundary runs a fixed cycle
// over its scavenges: forward to now (every death tenured), back to 0
// (all tenured garbage reclaimed), forward part way, forward to now
// again, and back part way (the tenured garbage born after it
// reclaimed, the rest kept). Log runners reclaim untenured garbage
// from their tenured heap, which no stock policy moving its boundary
// mostly forward exercises as hard.
type scriptedBoundary struct{}

func (scriptedBoundary) Name() string { return "Scripted" }

func (scriptedBoundary) Boundary(now core.Time, hist *core.History, _ core.Heap) core.Time {
	switch len(hist.Scavenges) % 5 {
	case 0, 3:
		return now
	case 1:
		return 0
	case 2:
		return core.TimeAt(now.Bytes() / 2)
	default:
		return core.TimeAt(now.Bytes() / 4 * 3)
	}
}

// randomChurnTrace allocates n objects of 256 B to 4 KB and, once more
// than hold are live, frees a random live one, so objects die in no
// particular birth order and every cohort dies eventually.
func randomChurnTrace(n, hold int) []trace.Event {
	g := lcg(99)
	b := trace.NewBuilder()
	var live []trace.ObjectID
	for i := 0; i < n; i++ {
		b.Advance(100)
		live = append(live, b.Alloc(256+g.next()%(4*kb-256)))
		if len(live) > hold {
			j := int(g.next() % uint64(len(live)))
			b.Free(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return b.Events()
}

// TestLogRunnerMatchesSweepUnderScriptedBoundary pins the death-log
// scavenge to the object-list sweep: the scripted policy on a log
// runner and on a ReferenceScan runner, which sweeps, share a fleet,
// and their Results, histories included, must be identical in both
// apply modes. The sweeping runner holds every dead object the log
// runner holds, so in that fleet its floor hides the log runner's;
// the log runner alone, in a fleet of its own, must give the same
// Result too. Both fleets compact every 16 events.
func TestLogRunnerMatchesSweepUnderScriptedBoundary(t *testing.T) {
	ghost, err := workload.Ghost1().Scale(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	traces := []struct {
		name   string
		events []trace.Event
		retire bool
	}{
		{"random churn", randomChurnTrace(6000, 40), true},
		{"GHOST(1)", ghost, false},
	}
	logged := Config{Policy: scriptedBoundary{}, TriggerBytes: 10 * kb}
	swept := logged
	swept.ReferenceScan = true
	replay := func(t *testing.T, events []trace.Event, cfgs []Config, summary bool) ([]*Result, TapeStats) {
		t.Helper()
		fleet, err := NewFleet(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		tuneRuns(fleet, summary)
		aggressive(fleet.tape)
		fleet.tape.checkEvery = 16
		for lo := 0; lo < len(events); lo += 500 {
			if err := fleet.FeedBatch(events[lo:min(lo+500, len(events))]); err != nil {
				t.Fatal(err)
			}
		}
		st := fleet.TapeStats()
		return fleet.Finish(), st
	}
	for _, tc := range traces {
		for _, summary := range runModes {
			pair, _ := replay(t, tc.events, []Config{logged, swept}, summary)
			alone, st := replay(t, tc.events, []Config{logged}, summary)
			want := pair[1]
			if want.Collections < 10 {
				t.Fatalf("%s, %s: only %d collections", tc.name, applyMode(summary), want.Collections)
			}
			if tc.retire && st.RetiredObjects == 0 {
				t.Fatalf("%s, %s: no ordinals retired: %+v", tc.name, applyMode(summary), st)
			}
			for _, got := range []struct {
				name string
				res  *Result
			}{{"beside the sweep", pair[0]}, {"alone", alone[0]}} {
				if reflect.DeepEqual(got.res, want) {
					continue
				}
				t.Errorf("%s, %s: log runner %s differs from sweeping runner", tc.name, applyMode(summary), got.name)
				for i, s := range got.res.History.Scavenges {
					if i < len(want.History.Scavenges) && s != want.History.Scavenges[i] {
						t.Errorf("scavenge %d: log %+v, sweep %+v", i, s, want.History.Scavenges[i])
						break
					}
				}
			}
		}
	}
}

// logPeakProbe records the longest death log its fleet holds at any
// scavenge.
type logPeakProbe struct {
	fleet *Fleet
	most  int
}

func (p *logPeakProbe) RunStart(RunStart) {}
func (p *logPeakProbe) Decision(Decision) {}
func (p *logPeakProbe) Scavenge(ScavengeEvent) {
	p.most = max(p.most, p.fleet.TapeStats().DeathLog)
}
func (p *logPeakProbe) Progress(Progress)   {}
func (p *logPeakProbe) RunFinish(RunFinish) {}

// TestDeathLogStaysBounded: on a long compacting churn, the death log
// holds only the frees the slowest log runner has not consumed, plus
// trimming slack — a bound set by the trigger, not by the trace length
// or the batch size: the log is checked after every batch, and, with
// the whole trace fed as one batch, at every scavenge. Fleets without
// a log runner never log at all.
func TestDeathLogStaysBounded(t *testing.T) {
	events := compactingChurnTrace(60000)
	// Every log runner scavenges each 10 KB, 40 allocs of 256 B, and the
	// log holds at most about twice the frees since the slowest one's
	// last scavenge.
	const bound = 128
	fleet, err := NewFleet(reclaimingMatrix())
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := NewFleet([]Config{{Mode: ModeNoGC}, {Mode: ModeLive}, {Policy: core.Full{}, TriggerBytes: 10 * kb, ReferenceScan: true}})
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for lo := 0; lo < len(events); lo += 1000 {
		batch := events[lo:min(lo+1000, len(events))]
		if err := fleet.FeedBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := quiet.FeedBatch(batch); err != nil {
			t.Fatal(err)
		}
		most = max(most, fleet.TapeStats().DeathLog)
		if n := quiet.TapeStats().DeathLog; n != 0 {
			t.Fatalf("a fleet with no log runner logged %d deaths", n)
		}
	}
	if most == 0 || most > bound {
		t.Errorf("death log peaked at %d entries over %d events fed in batches", most, len(events))
	}
	if st := fleet.TapeStats(); st.RetiredObjects == 0 {
		t.Errorf("no ordinals retired: %+v", st)
	}

	probe := &logPeakProbe{}
	cfgs := reclaimingMatrix()
	cfgs[0].Probe = probe
	one, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	probe.fleet = one
	if err := one.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	if probe.most == 0 || probe.most > bound {
		t.Errorf("death log peaked at %d entries over %d events fed as one batch", probe.most, len(events))
	}
}

// TestTenuredSet checks the tenured set against a plain list: a
// reclaim takes exactly the members at or above its threshold, with
// their sizes, whether they wait in the pending list or the heap; the
// floor is the smallest member; and a rebase shifts it.
func TestTenuredSet(t *testing.T) {
	g := lcg(7)
	const n = 5000
	sizes := make([]uint64, n)
	tp := &tape{} // its births encode the sizes
	var clock core.Time
	for i := range sizes {
		sizes[i] = 1 + g.next()%1000
		clock = clock.Add(sizes[i])
		tp.push(clock)
	}
	var set tenuredSet
	var model []int32 // the members, unordered
	next := int32(0)
	heapUsed := 0
	for step := 0; step < 4000; step++ {
		if g.next()%4 != 0 {
			// Deaths land below the current threshold, mostly near
			// the newest ordinals.
			ord := next - int32(g.next()%uint64(next+1))/4
			if slices.Contains(model, ord) || ord >= n {
				next = min(next+1, n-1)
				continue
			}
			set.add(ord)
			model = append(model, ord)
			next = min(next+1, n-1)
			continue
		}
		// Mostly a boundary near the newest ordinals, which keeps the
		// set growing; sometimes a deep one, which empties most of it.
		thr := max(0, next-int32(g.next()%64))
		if g.next()%10 == 0 {
			thr = next - int32(g.next()%uint64(next/2+1))
		}
		var want uint64
		kept := model[:0]
		for _, ord := range model {
			if ord >= thr {
				want += sizes[ord]
			} else {
				kept = append(kept, ord)
			}
		}
		model = kept
		if got := set.reclaim(thr, tp); got != want {
			t.Fatalf("step %d: reclaim(%d) = %d bytes, want %d", step, thr, got, want)
		}
		if len(model) > 0 && set.floor() != slices.Min(model) {
			t.Fatalf("step %d: floor %d, want %d", step, set.floor(), slices.Min(model))
		}
		if len(model) == 0 && !set.empty() {
			t.Fatalf("step %d: set holds members the model does not", step)
		}
		heapUsed = max(heapUsed, len(set.heap))
	}
	if heapUsed < 100 || len(model) == 0 {
		t.Fatalf("the walk never grew the heap (peak %d) or ended empty (%d members)", heapUsed, len(model))
	}
	set.rebase(set.floor())
	if set.floor() != 0 {
		t.Fatalf("rebased floor %d, want 0", set.floor())
	}
}
