package sim

import (
	"math"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// phasedTrace builds a workload whose storage dies in waves at marked
// quiescent points, like a compiler's per-pass data.
func phasedTrace(phases int, phaseKB int) []trace.Event {
	b := trace.NewBuilder()
	for p := 0; p < phases; p++ {
		var ids []trace.ObjectID
		for i := 0; i < phaseKB; i++ {
			b.Advance(100)
			ids = append(ids, b.Alloc(kb))
		}
		// The pass ends: everything dies, then the quiescent point.
		for _, id := range ids {
			b.Free(id)
		}
		b.Mark("pass end")
	}
	return b.Events()
}

func TestOpportunisticCollectsAtQuiescentPoints(t *testing.T) {
	events := phasedTrace(20, 8) // 8 KB phases, marks after mass death
	base := Config{Policy: core.Full{}, TriggerBytes: 10 * kb}
	opp := base
	opp.Opportunistic = true

	plain := mustRun(t, events, base)
	smart := mustRun(t, events, opp)

	// The opportunistic runs collect right after the mass deaths, so
	// scavenges trace almost nothing; the byte-triggered runs land
	// mid-phase and trace the pass's live storage.
	if smart.TracedTotalBytes >= plain.TracedTotalBytes {
		t.Fatalf("opportunistic traced %d, byte-trigger traced %d",
			smart.TracedTotalBytes, plain.TracedTotalBytes)
	}
	if smart.Collections == 0 {
		t.Fatal("no opportunistic collections ran")
	}
}

func TestOpportunisticHonoursMinimumWork(t *testing.T) {
	// Marks arriving before TriggerBytes/2 of allocation must not
	// trigger: a mark-spamming trace cannot force thrashing.
	b := trace.NewBuilder()
	for i := 0; i < 100; i++ {
		b.Advance(10)
		b.Alloc(64)
		b.Mark("spam")
	}
	res := mustRun(t, b.Events(), Config{Policy: core.Full{}, TriggerBytes: 1 << 20, Opportunistic: true})
	if res.Collections != 0 {
		t.Fatalf("mark spam triggered %d collections", res.Collections)
	}
}

func TestOpportunisticByteBackstopStillFires(t *testing.T) {
	// A mark-free trace collects on the byte trigger as usual.
	events := churnTrace(100, kb, 3, 0)
	res := mustRun(t, events, Config{Policy: core.Full{}, TriggerBytes: 10 * kb, Opportunistic: true})
	if res.Collections != 10 {
		t.Fatalf("collections = %d, want 10", res.Collections)
	}
}

func TestOpportunisticIgnoredOutsidePolicyMode(t *testing.T) {
	events := phasedTrace(5, 8)
	res := mustRun(t, events, Config{Mode: ModeNoGC, Opportunistic: true})
	if res.Collections != 0 {
		t.Fatal("baseline mode ran collections")
	}
}

func TestWorkloadPhasesEmitMarks(t *testing.T) {
	p := workload.Espresso2().Scale(0.05)
	events := p.MustGenerate()
	marks := 0
	for _, e := range events {
		if e.Kind == trace.KindMark {
			marks++
		}
	}
	// 5.2 MB run with 200 KB phases: ~25 marks.
	if marks < 10 {
		t.Fatalf("only %d phase marks in ESPRESSO(2) trace", marks)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatal(err)
	}
}

func TestOpportunisticOnGeneratedPhaseWorkload(t *testing.T) {
	// A pass-heavy profile generated through internal/workload (so the
	// Mark emission path is exercised end to end): half of all bytes
	// are pass-local and die at the marked boundaries. Collecting at
	// the quiescent points traces less per scavenge and holds less
	// memory than mid-phase byte triggers.
	p := workload.Profile{
		Name: "PHASED", ExecSeconds: 2, TotalBytes: 4 << 20,
		MeanObject: 64, Seed: 3, PhaseBytes: 256 * kb,
		Classes: []workload.Class{
			{Fraction: 0.5, DieAtPhaseEnd: true},
			{Fraction: 0.5, MeanLife: 4 * kb},
		},
	}
	events := p.MustGenerate()
	// Trigger slightly above the phase length: the byte trigger lands
	// mid-phase while the opportunistic runs retarget to the marks.
	base := Config{Policy: core.Full{}, TriggerBytes: 320 * kb}
	opp := base
	opp.Opportunistic = true
	plain := mustRun(t, events, base)
	smart := mustRun(t, events, opp)

	perPlain := float64(plain.TracedTotalBytes) / float64(plain.Collections)
	perSmart := float64(smart.TracedTotalBytes) / float64(smart.Collections)
	if perSmart >= perPlain {
		t.Fatalf("opportunistic traced %.0f per scavenge >= byte-trigger %.0f", perSmart, perPlain)
	}
	if smart.MemMeanBytes >= plain.MemMeanBytes {
		t.Fatalf("opportunistic mean memory %.0f >= byte-trigger %.0f",
			smart.MemMeanBytes, plain.MemMeanBytes)
	}
}

// TestOpportunisticRunnerKeepsItsLiveSamples: an opportunistic runner's
// post-scavenge sample at a Mark is a point of its live-byte statistic
// that no alloc or free holds — here it even starts the statistic,
// before the first allocation — so that runner keeps its own copy
// instead of the tape's shared one. The expected values are the
// per-sample definition: live bytes 0 over [100, 1000), 64 over
// [1000, 2000), 0 over [2000, 3000); without the mark sample the
// statistic starts at 1000.
func TestOpportunisticRunnerKeepsItsLiveSamples(t *testing.T) {
	events := []trace.Event{
		trace.Mark("m", 100),
		trace.Alloc(1, 64, 1000),
		trace.Free(1, 2000),
		trace.Alloc(2, 64, 3000),
	}
	for _, tc := range []struct {
		opportunistic bool
		mean          float64
	}{{true, 64.0 * 1000 / 2900}, {false, 32}} {
		cfg := Config{Policy: core.Full{}, TriggerBytes: 1, Opportunistic: tc.opportunistic}
		solo := mustRun(t, events, cfg)
		fleet, err := NewFleet([]Config{cfg, {Mode: ModeLive}})
		if err != nil {
			t.Fatal(err)
		}
		tuneRuns(fleet, true)
		if err := fleet.FeedBatch(events); err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{solo, fleet.Finish()[0]} {
			if math.Float64bits(res.LiveMeanBytes) != math.Float64bits(tc.mean) || math.Float64bits(res.LiveMaxBytes) != math.Float64bits(64) {
				t.Errorf("opportunistic=%v: live mean %v max %v, want %v and 64", tc.opportunistic, res.LiveMeanBytes, res.LiveMaxBytes, tc.mean)
			}
		}
	}
}
