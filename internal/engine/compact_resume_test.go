package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// compactionChurn is pure churn long enough that the tape's
// default-threshold epoch compaction fires well before the end: no
// object survives, so the dead prefix grows without bound.
func compactionChurn(t testing.TB, n int) []trace.Event {
	t.Helper()
	b := trace.NewBuilder()
	var pending []trace.ObjectID
	for i := 0; i < n; i++ {
		b.Advance(100)
		pending = append(pending, b.Alloc(256))
		if len(pending) > 12 {
			b.Free(pending[0])
			pending = pending[1:]
		}
	}
	return b.Events()
}

// compactionMatrix holds collectors whose heaps drain, so runner
// floors advance and retirement actually happens.
func compactionMatrix() []sim.Config {
	return []sim.Config{
		{Policy: core.Full{}, TriggerBytes: 10 << 10},
		{Policy: core.DtbFM{TraceMax: 1 << 20}, TriggerBytes: 10 << 10},
		{Mode: sim.ModeLive},
	}
}

// TestResumeAcrossCompactionEpoch: a replay interrupted after the
// tape has retired ordinal prefixes must resume to results
// bit-identical to the uninterrupted run — the retired prefix is
// state a resume can no longer reconstruct, so the checkpoint's live
// tape must be all it needs.
func TestResumeAcrossCompactionEpoch(t *testing.T) {
	events := compactionChurn(t, 30000)

	want, err := Replay(context.Background(), SliceSource(events), compactionMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}

	boom := errors.New("transient read failure")
	breakAt := 40000 // far past the first default-cadence compaction
	_, cp, rerr := ReplayResumable(context.Background(), failAfter(events, breakAt, boom), compactionMatrix())
	if !errors.Is(rerr, boom) || cp == nil {
		t.Fatalf("interrupt: err %v, checkpoint %v", rerr, cp)
	}
	st := cp.fleet.TapeStats()
	if st.RetiredObjects == 0 {
		t.Fatalf("checkpoint at %d events crossed no compaction epoch (tape %+v): the test lost its premise", breakAt, st)
	}
	if st.Events != breakAt {
		t.Fatalf("tape at %d events, checkpoint at %d", st.Events, breakAt)
	}
	if st.RetiredIDSpans == 0 {
		t.Fatalf("tape retired %d ordinals but holds no retired ID spans", st.RetiredObjects)
	}

	got, cp2, rerr := cp.Resume(context.Background(), SliceSource(events))
	if rerr != nil || cp2 != nil {
		t.Fatalf("resume: %v (checkpoint %v)", rerr, cp2)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d (%s): result resumed across a compaction epoch differs from uninterrupted run",
				i, want[i].Collector)
		}
	}
}

// TestResumeRejectsDivergedTape: a fleet fed past its checkpoint no
// longer stands at the checkpoint's event count, and Resume must
// refuse it — continuing would replay the wrong suffix onto the
// wrong tape.
func TestResumeRejectsDivergedTape(t *testing.T) {
	events := compactionChurn(t, 30000)
	boom := errors.New("boom")
	_, cp, _ := ReplayResumable(context.Background(), failAfter(events, 40000, boom), compactionMatrix())
	if cp == nil {
		t.Fatal("no checkpoint")
	}
	// Sneak events into the checkpoint's fleet behind its back.
	if err := cp.fleet.FeedBatch(events[40000:40100]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cp.Resume(context.Background(), SliceSource(events)); err == nil {
		t.Fatal("resume accepted a fleet that diverged from the checkpoint")
	}
}
