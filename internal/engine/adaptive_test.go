package engine

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
)

// adaptiveTestMatrix mixes adaptive and pure policies, so a resume
// continues some runners' learned state beside stateless ones.
func adaptiveTestMatrix() []sim.Config {
	const trigger = 32 * 1024
	return []sim.Config{
		{Policy: core.Bandit{Eps: 0.1}, TriggerBytes: trigger, Label: "eps", PolicySeed: 11},
		{Policy: core.Bandit{UCB: 1.5}, TriggerBytes: trigger, Label: "ucb", PolicySeed: 11},
		{Policy: core.Gradient{}, TriggerBytes: trigger, Label: "grad", PolicySeed: 11},
		{Policy: core.Full{}, TriggerBytes: trigger, Label: "full"},
		{Mode: sim.ModeLive},
	}
}

// TestAdaptiveResumeBitIdentical extends the checkpoint contract to
// state-carrying policies: an interrupted and resumed replay must
// finish with exactly the results of an uninterrupted one, learned
// state included, for break points at, before and strictly inside
// batch boundaries.
func TestAdaptiveResumeBitIdentical(t *testing.T) {
	events := testEvents(t)
	want, err := Replay(context.Background(), SliceSource(events), adaptiveTestMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}

	// The test trace is shorter than one 4096-event batch, so every
	// nonzero break point is strictly mid-batch for the batching source.
	for _, breakAt := range []int{0, 1, len(events) / 3, len(events) - 1} {
		injected := errors.New("transient read failure")
		_, cp, rerr := ReplayResumable(context.Background(), failAfter(events, breakAt, injected), adaptiveTestMatrix())
		if !errors.Is(rerr, injected) || cp == nil {
			t.Fatalf("breakAt %d: err %v, checkpoint %v", breakAt, rerr, cp)
		}
		got, cp2, rerr := cp.Resume(context.Background(), SliceSource(events))
		if rerr != nil || cp2 != nil {
			t.Fatalf("breakAt %d: Resume: %v (checkpoint %v)", breakAt, rerr, cp2)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("breakAt %d, %s: resumed adaptive result differs from uninterrupted run",
					breakAt, want[i].Collector)
			}
		}
	}
}

// TestResumeRefusesStaleCheckpoint: resuming cp1 to a second
// interruption leaves cp1 behind its fleet. Resuming cp1 again must
// fail without feeding or changing that fleet, so the newer cp2 still
// finishes bit-identically to an uninterrupted replay.
func TestResumeRefusesStaleCheckpoint(t *testing.T) {
	events := testEvents(t)
	want, err := Replay(context.Background(), SliceSource(events), adaptiveTestMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}
	boom := errors.New("boom")
	k1, k2 := len(events)/4, len(events)/2
	_, cp1, _ := ReplayResumable(context.Background(), failAfter(events, k1, boom), adaptiveTestMatrix())
	if cp1 == nil {
		t.Fatal("first interrupt: no checkpoint")
	}
	_, cp2, _ := cp1.Resume(context.Background(), failAfter(events, k2, boom))
	if cp2 == nil || cp2.Events() != k2 {
		t.Fatalf("second interrupt: checkpoint %v, want one at %d events", cp2, k2)
	}

	res, cp, err := cp1.Resume(context.Background(), SliceSource(events))
	if err == nil || res != nil || cp != nil {
		t.Fatalf("stale resume: results %v, checkpoint %v, err %v; want a refusal", res, cp, err)
	}
	for _, k := range []int{k1, k2} {
		if !strings.Contains(err.Error(), strconv.Itoa(k)) {
			t.Errorf("stale resume error %q does not name event count %d", err, k)
		}
	}
	if n := cp1.fleet.Events(); n != k2 {
		t.Fatalf("refused resume moved the fleet from %d to %d events", k2, n)
	}

	got, cp, err := cp2.Resume(context.Background(), SliceSource(events))
	if err != nil || cp != nil {
		t.Fatalf("resume of the newer checkpoint: %v (checkpoint %v)", err, cp)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("newer checkpoint resumed after a refused stale one differs from the uninterrupted replay")
	}
}

// TestAdaptiveResumeTwiceInterrupted: a resumed replay can itself be
// interrupted, and its checkpoint resumes the learned state it reached.
func TestAdaptiveResumeTwiceInterrupted(t *testing.T) {
	events := testEvents(t)
	want, err := Replay(context.Background(), SliceSource(events), adaptiveTestMatrix())
	if err != nil {
		t.Fatalf("uninterrupted Replay: %v", err)
	}
	boom := errors.New("boom")
	_, cp, _ := ReplayResumable(context.Background(), failAfter(events, 50, boom), adaptiveTestMatrix())
	if cp == nil {
		t.Fatal("first interrupt: no checkpoint")
	}
	_, cp, _ = cp.Resume(context.Background(), failAfter(events, len(events)/2, boom))
	if cp == nil {
		t.Fatal("second interrupt: no checkpoint")
	}
	got, cp, rerr := cp.Resume(context.Background(), SliceSource(events))
	if rerr != nil || cp != nil {
		t.Fatalf("final resume: %v (checkpoint %v)", rerr, cp)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: twice-resumed adaptive result differs from uninterrupted run", want[i].Collector)
		}
	}
}
