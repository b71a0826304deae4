package sim

import (
	"runtime"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

func TestPageModelDisabledByDefault(t *testing.T) {
	events := churnTrace(200, kb, 3, 0)
	res := mustRun(t, events, tinyConfig(core.Full{}))
	if res.PageFaults != 0 || res.PageAccesses != 0 {
		t.Fatal("page counters nonzero without PageFrames")
	}
}

// TestPageModelMemoryFollowsTouchedPages: a resident set of 2^20
// frames costs memory for the pages a run touches, not for its
// capacity.
func TestPageModelMemoryFollowsTouchedPages(t *testing.T) {
	events := []trace.Event{trace.Alloc(1, 64, 0), trace.Free(1, 1)}
	cfg := tinyConfig(core.Full{})
	cfg.PageFrames = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustRun(t, events, cfg)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("a two-event run with %d frames allocated %d bytes", cfg.PageFrames, grew)
	}
}

func TestPageModelCountsFaults(t *testing.T) {
	events := churnTrace(500, kb, 3, 0)
	cfg := tinyConfig(core.Full{})
	cfg.PageFrames = 16
	res := mustRun(t, events, cfg)
	if res.PageFaults == 0 || res.PageAccesses == 0 {
		t.Fatal("page model recorded nothing")
	}
	if res.PageFaults > res.PageAccesses {
		t.Fatal("more faults than accesses")
	}
}

func TestGenerationalCollectionReducesFaultRate(t *testing.T) {
	// The §2 claim the whole field rests on: partial collection
	// touches less memory per scavenge than full collection, so with a
	// constrained resident set the full collector faults more. GHOST
	// has the long-lived data that makes the difference visible.
	events := workload.Ghost1().Scale(0.1).MustGenerate()
	base := Config{TriggerBytes: 100 * kb, PageFrames: 64} // 256 KB resident
	full := base
	full.Policy = core.Full{}
	fixed1 := base
	fixed1.Policy = core.Fixed{K: 1}
	fr := mustRun(t, events, full)
	gr := mustRun(t, events, fixed1)
	if gr.PageFaults >= fr.PageFaults {
		t.Fatalf("Fixed1 faulted %d times, Full %d: generational locality advantage missing",
			gr.PageFaults, fr.PageFaults)
	}
}

func TestPageModelStreamingMatches(t *testing.T) {
	events := churnTrace(300, kb, 4, 5)
	cfg := tinyConfig(core.Fixed{K: 1})
	cfg.PageFrames = 8
	direct := mustRun(t, events, cfg)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := r.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	streamed := r.Finish()
	if direct.PageFaults != streamed.PageFaults || direct.PageAccesses != streamed.PageAccesses {
		t.Fatalf("incremental page counts diverged: %d/%d vs %d/%d",
			direct.PageFaults, direct.PageAccesses, streamed.PageFaults, streamed.PageAccesses)
	}
}
