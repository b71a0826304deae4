package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/xrand"
)

// adaptiveFamilies returns the adaptive policies under test, one per
// selector mode.
func adaptiveFamilies() []AdaptivePolicy {
	return []AdaptivePolicy{
		Bandit{Eps: 0.1},
		Bandit{Eps: 0.25, Arms: 4},
		Bandit{UCB: 1.5},
		Gradient{},
		Gradient{Rate: 0.2, TraceMax: 64 * 1024},
	}
}

// driveTrace records the decision stream of one instance over a
// synthetic but fully deterministic scenario: a growing history whose
// scavenge outcomes are derived from the boundary the instance chose,
// so the feedback loop is closed exactly like the simulator's.
func driveTrace(t *testing.T, inst PolicyInstance, steps int) []byte {
	t.Helper()
	var out bytes.Buffer
	hist := &History{}
	heap := &randHeap{}
	var clock Time
	for i := 0; i < steps; i++ {
		clock = clock.Add(uint64(200_000 + 10_000*i))
		heap.inUse = uint64(1_000_000 + 50_000*i)
		heap.points = append(heap.points, struct {
			t    Time
			live uint64
		}{t: clock, live: uint64(40_000 + 1_000*i)})
		tb := inst.Boundary(clock, hist, heap)
		if tb > clock {
			t.Fatalf("step %d: boundary %v beyond now %v", i, tb, clock)
		}
		if prev := hist.TimeOfPrevious(1); tb > prev {
			t.Fatalf("step %d: boundary %v beyond previous scavenge time %v", i, tb, prev)
		}
		traced := heap.LiveBytesBornAfter(tb)
		surviving := heap.inUse - traced/4
		s := Scavenge{T: clock, TB: tb, MemBefore: heap.inUse, Traced: traced,
			Reclaimed: traced / 4, Surviving: surviving}
		hist.Record(s)
		s.N = hist.Len()
		inst.Observe(ScavengeFacts{Scavenge: s, Live: surviving - surviving/8, MarkTriggered: i%3 == 0})
		info, ok := inst.(DecisionExplainer)
		if !ok {
			t.Fatal("instance does not explain its decisions")
		}
		d, has := info.LastDecision()
		if !has {
			t.Fatalf("step %d: LastDecision not available after Boundary", i)
		}
		out.WriteString(strconv.FormatUint(tb.Bytes(), 10))
		out.WriteByte('|')
		out.WriteString(strconv.Itoa(d.Arm))
		var dig [8]byte
		for b := 0; b < 8; b++ {
			dig[b] = byte(d.FeatureDigest >> (8 * b))
		}
		out.Write(dig[:])
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestAdaptiveDeterministicPerSeed(t *testing.T) {
	for _, fam := range adaptiveFamilies() {
		a := driveTrace(t, fam.NewRun(42), 40)
		b := driveTrace(t, fam.NewRun(42), 40)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two runs with the same seed diverged", fam.Name())
		}
	}
}

func TestAdaptiveSeedsAreIndependent(t *testing.T) {
	// Not every policy must differ on every seed pair, but the bandit's
	// exploration stream must: identical streams would mean the seed is
	// ignored.
	fam := Bandit{Eps: 0.5}
	a := driveTrace(t, fam.NewRun(1), 60)
	b := driveTrace(t, fam.NewRun(2), 60)
	if bytes.Equal(a, b) {
		t.Error("Bandit ignores its seed: runs with different seeds are identical")
	}
}

func TestAdaptiveFirstScavengeIsFull(t *testing.T) {
	for _, fam := range adaptiveFamilies() {
		inst := fam.NewRun(7)
		heap := &randHeap{inUse: 1000}
		empty := &History{}
		if tb := inst.Boundary(TimeAt(123456), empty, heap); tb != 0 {
			t.Errorf("%s: first boundary %v, want 0 (full collection)", fam.Name(), tb)
		}
	}
}

func TestAdaptiveFamilyBoundaryPanics(t *testing.T) {
	for _, fam := range adaptiveFamilies() {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: family Boundary did not panic", fam.Name())
					return
				}
				if !strings.Contains(fmt.Sprint(r), "NewRun") {
					t.Errorf("%s: panic %q does not point at NewRun", fam.Name(), r)
				}
			}()
			fam.Boundary(TimeAt(1), &History{}, &randHeap{})
		}()
	}
}

// TestAdaptiveBoundaryContracts runs the adaptive instances through
// the same randomized scenario generator as the stock policies: the
// clamp discipline and the trace-everything-once invariant hold for
// them too.
func TestAdaptiveBoundaryContracts(t *testing.T) {
	r := xrand.New(0xADA9)
	for trial := 0; trial < 1500; trial++ {
		now, hist, heap := randScenario(r)
		prevT := hist.TimeOfPrevious(1)
		for _, fam := range adaptiveFamilies() {
			inst := fam.NewRun(uint64(trial))
			tb := inst.Boundary(now, hist, heap)
			if tb > now {
				t.Fatalf("trial %d: %s: boundary %v beyond now %v", trial, fam.Name(), tb, now)
			}
			if tb > prevT {
				t.Fatalf("trial %d: %s: boundary %v beyond previous scavenge time %v", trial, fam.Name(), tb, prevT)
			}
		}
	}
}

func TestAdaptiveNames(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{Bandit{Eps: 0.1}, "Bandit[eps=0.1,arms=8]"},
		{Bandit{UCB: 1.5, Arms: 4}, "Bandit[ucb=1.5,arms=4]"},
		{Gradient{}, "Grad[rate=0.05,trace=51200]"},
		{Gradient{Rate: 0.2, TraceMax: 1024}, "Grad[rate=0.2,trace=1024]"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}
