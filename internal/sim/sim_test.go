package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// kb builds sizes in kilobytes for readability.
const kb = 1024

// tinyConfig scavenges every 10 KB so small hand-built traces trigger
// collections.
func tinyConfig(p core.Policy) Config {
	return Config{Policy: p, TriggerBytes: 10 * kb}
}

// churnTrace allocates n objects of size sz, freeing each after `hold`
// further allocations; a fraction survive forever.
func churnTrace(n int, sz uint64, hold int, permEvery int) []trace.Event {
	b := trace.NewBuilder()
	var pending []trace.ObjectID
	for i := 0; i < n; i++ {
		b.Advance(100)
		id := b.Alloc(sz)
		perm := permEvery > 0 && i%permEvery == 0
		if !perm {
			pending = append(pending, id)
		}
		if len(pending) > hold {
			b.Free(pending[0])
			pending = pending[1:]
		}
	}
	return b.Events()
}

func mustRun(t *testing.T, events []trace.Event, cfg Config) *Result {
	t.Helper()
	res, err := Run(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRequiresPolicy(t *testing.T) {
	if _, err := Run(nil, Config{Mode: ModePolicy}); err == nil {
		t.Fatal("ModePolicy without policy accepted")
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	if _, err := Run(nil, Config{Mode: Mode(42)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunRejectsMalformedTraces: each trace defect is a *TraceError
// naming the offending event and object.
func TestRunRejectsMalformedTraces(t *testing.T) {
	cases := []struct {
		events []trace.Event
		want   TraceError
	}{
		{[]trace.Event{trace.Alloc(1, 8, 0), trace.Alloc(1, 8, 1)}, TraceError{Event: 1, Object: 1, Defect: "duplicate allocation of object 1"}},
		{[]trace.Event{trace.Free(9, 0)}, TraceError{Event: 0, Object: 9, Defect: "free of unknown object 9"}},
		{[]trace.Event{trace.Alloc(1, 8, 0), trace.Free(1, 1), trace.Free(1, 2)}, TraceError{Event: 2, Object: 1, Defect: "double free of object 1"}},
		{[]trace.Event{trace.Alloc(1, 8, 10), trace.Alloc(2, 8, 5)}, TraceError{Event: 1, Defect: "clock regressed"}},
		{[]trace.Event{{Kind: trace.Kind(99)}}, TraceError{Event: 0, Defect: "unknown kind 99"}},
	}
	for i, c := range cases {
		_, err := Run(c.events, tinyConfig(core.Full{}))
		var te *TraceError
		if !errors.As(err, &te) || *te != c.want {
			t.Errorf("case %d: error %#v, want %#v", i, err, &c.want)
		}
	}
}

// TestCheckMatchesRunErrors: Check, which resolves a trace with no
// runners, reports exactly the error a replay reports, including the
// reuse of an ID that compaction has retired, and accepts every trace
// a replay accepts.
func TestCheckMatchesRunErrors(t *testing.T) {
	churn := compactingChurnTrace(20000)
	reuse := append(append([]trace.Event{}, churn...), trace.Alloc(churn[0].ID, 8, churn[len(churn)-1].Instr))
	cases := [][]trace.Event{
		{trace.Alloc(1, 8, 0), trace.Alloc(1, 8, 1)},
		{trace.Alloc(1, 8, 0), trace.Free(1, 1), trace.Alloc(1, 8, 2)},
		{trace.Free(9, 0)},
		{trace.Alloc(1, 8, 0), trace.Free(1, 1), trace.Free(1, 2)},
		{trace.Alloc(1, 8, 10), trace.Alloc(2, 8, 5)},
		{{Kind: trace.Kind(99)}},
		reuse,
	}
	for i, events := range cases {
		_, want := Run(events, tinyConfig(core.Full{}))
		got := Check(events)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("case %d: Check error %v, Run error %v", i, got, want)
		}
	}
	if err := Check(churn); err != nil {
		t.Errorf("Check rejected a well-formed trace: %v", err)
	}
}

func TestNoGCMemoryIsCumulativeAllocation(t *testing.T) {
	events := churnTrace(100, kb, 2, 0)
	res := mustRun(t, events, Config{Mode: ModeNoGC})
	if res.Collector != "NoGC" {
		t.Errorf("collector name %q", res.Collector)
	}
	if res.MemMaxBytes != float64(100*kb) {
		t.Errorf("NoGC max = %v, want %v", res.MemMaxBytes, 100*kb)
	}
	if res.Collections != 0 || len(res.Pauses) != 0 {
		t.Error("NoGC ran collections")
	}
	// Linear growth: mean should be close to half the max.
	if res.MemMeanBytes < 0.4*res.MemMaxBytes || res.MemMeanBytes > 0.6*res.MemMaxBytes {
		t.Errorf("NoGC mean %v vs max %v: expected ~half", res.MemMeanBytes, res.MemMaxBytes)
	}
}

func TestLiveModeTracksOracle(t *testing.T) {
	// Hold 3 objects of 1 KB: steady-state live is ~4 KB (3 pending + the new one).
	events := churnTrace(200, kb, 3, 0)
	res := mustRun(t, events, Config{Mode: ModeLive})
	if res.MemMaxBytes != res.LiveMaxBytes || res.MemMeanBytes != res.LiveMeanBytes {
		t.Errorf("Live mode memory (%v/%v) should equal oracle (%v/%v)",
			res.MemMeanBytes, res.MemMaxBytes, res.LiveMeanBytes, res.LiveMaxBytes)
	}
	if res.MemMaxBytes > float64(5*kb) {
		t.Errorf("Live max = %v, want <= 5KB", res.MemMaxBytes)
	}
}

func TestFullCollectorReclaimsAllGarbage(t *testing.T) {
	events := churnTrace(300, kb, 2, 0)
	res := mustRun(t, events, tinyConfig(core.Full{}))
	if res.Collections == 0 {
		t.Fatal("no collections ran")
	}
	for _, s := range res.History.Scavenges {
		if s.TB != 0 {
			t.Fatalf("Full used boundary %d", s.TB)
		}
		// After a full scavenge nothing dead remains: surviving ==
		// live == traced.
		if s.Surviving != s.Traced {
			t.Fatalf("scavenge %d: surviving %d != traced %d after full collection", s.N, s.Surviving, s.Traced)
		}
	}
}

func TestCollectionCountMatchesTrigger(t *testing.T) {
	// 300 KB allocated, trigger every 10 KB => exactly 30 scavenges.
	events := churnTrace(300, kb, 2, 0)
	res := mustRun(t, events, tinyConfig(core.Full{}))
	if res.Collections != 30 {
		t.Fatalf("collections = %d, want 30", res.Collections)
	}
	if len(res.Pauses) != 30 {
		t.Fatalf("pauses = %d, want 30", len(res.Pauses))
	}
	if res.TotalAlloc != 300*kb {
		t.Fatalf("TotalAlloc = %d", res.TotalAlloc)
	}
}

func TestPausesProportionalToTraced(t *testing.T) {
	events := churnTrace(300, kb, 5, 0)
	res := mustRun(t, events, tinyConfig(core.Full{}))
	m := PaperMachine()
	var total uint64
	for i, s := range res.History.Scavenges {
		want := m.PauseSeconds(s.Traced)
		if math.Abs(res.Pauses[i]-want) > 1e-12 {
			t.Fatalf("pause %d = %v, want %v", i, res.Pauses[i], want)
		}
		total += s.Traced
	}
	if total != res.TracedTotalBytes {
		t.Fatalf("traced total %d != sum of scavenges %d", res.TracedTotalBytes, total)
	}
}

func TestFixed1AccumulatesTenuredGarbage(t *testing.T) {
	// Objects live long enough to survive exactly one scavenge, then
	// die: under Fixed1 they are tenured and never reclaimed, so
	// memory grows; under Full they are reclaimed.
	events := churnTrace(500, kb, 15, 0) // lifetime 15 KB > 10 KB trigger
	full := mustRun(t, events, tinyConfig(core.Full{}))
	fixed1 := mustRun(t, events, tinyConfig(core.Fixed{K: 1}))
	if fixed1.MemMaxBytes <= full.MemMaxBytes {
		t.Errorf("Fixed1 max %v should exceed Full max %v (tenured garbage)",
			fixed1.MemMaxBytes, full.MemMaxBytes)
	}
	if fixed1.TracedTotalBytes >= full.TracedTotalBytes {
		t.Errorf("Fixed1 traced %d should be below Full traced %d",
			fixed1.TracedTotalBytes, full.TracedTotalBytes)
	}
	// Unbounded growth: memory at the end approaches total allocation
	// of the dead-after-tenure objects.
	lastS := fixed1.History.Scavenges[len(fixed1.History.Scavenges)-1]
	if lastS.Surviving < uint64(full.MemMaxBytes) {
		t.Errorf("Fixed1 final surviving %d suspiciously small", lastS.Surviving)
	}
}

func TestFixed4BetweenFullAndFixed1(t *testing.T) {
	events := churnTrace(800, kb, 15, 0)
	full := mustRun(t, events, tinyConfig(core.Full{}))
	fixed1 := mustRun(t, events, tinyConfig(core.Fixed{K: 1}))
	fixed4 := mustRun(t, events, tinyConfig(core.Fixed{K: 4}))
	if !(full.MemMeanBytes <= fixed4.MemMeanBytes+1 && fixed4.MemMeanBytes <= fixed1.MemMeanBytes+1) {
		t.Errorf("memory ordering violated: full %v, fixed4 %v, fixed1 %v",
			full.MemMeanBytes, fixed4.MemMeanBytes, fixed1.MemMeanBytes)
	}
	if !(fixed1.TracedTotalBytes <= fixed4.TracedTotalBytes && fixed4.TracedTotalBytes <= full.TracedTotalBytes) {
		t.Errorf("overhead ordering violated: full %d, fixed4 %d, fixed1 %d",
			full.TracedTotalBytes, fixed4.TracedTotalBytes, fixed1.TracedTotalBytes)
	}
}

func TestMemoryNeverBelowLive(t *testing.T) {
	events := churnTrace(400, kb, 7, 10)
	for _, p := range []core.Policy{core.Full{}, core.Fixed{K: 1}, core.DtbFM{TraceMax: 20 * kb}, core.DtbMem{MemMax: 50 * kb}} {
		res := mustRun(t, events, tinyConfig(p))
		if res.MemMeanBytes < res.LiveMeanBytes-1e-9 {
			t.Errorf("%s: mean memory %v below live %v", p.Name(), res.MemMeanBytes, res.LiveMeanBytes)
		}
		if res.MemMaxBytes < res.LiveMaxBytes-1e-9 {
			t.Errorf("%s: max memory %v below live %v", p.Name(), res.MemMaxBytes, res.LiveMaxBytes)
		}
	}
}

func TestDtbMemRespectsFeasibleConstraint(t *testing.T) {
	// Live steady state ~8 KB; give DtbMem 40 KB. Max memory should
	// stay at or under the constraint plus one trigger interval of
	// fresh allocation (the collector only acts at scavenge points).
	events := churnTrace(2000, kb, 7, 0)
	budget := uint64(40 * kb)
	res := mustRun(t, events, tinyConfig(core.DtbMem{MemMax: budget}))
	slack := float64(budget + 10*kb)
	if res.MemMaxBytes > slack {
		t.Errorf("DtbMem max memory %v exceeds budget+trigger %v", res.MemMaxBytes, slack)
	}
}

func TestDtbMemOverConstrainedDegradesTowardFull(t *testing.T) {
	// Live bytes exceed the budget: DtbMem cannot meet it and should
	// approach Full's memory behaviour (within ~10%), per §6.1.
	events := churnTrace(2000, kb, 50, 4) // large live component
	full := mustRun(t, events, tinyConfig(core.Full{}))
	dtb := mustRun(t, events, tinyConfig(core.DtbMem{MemMax: 5 * kb}))
	if dtb.MemMaxBytes > full.MemMaxBytes*1.10 {
		t.Errorf("over-constrained DtbMem max %v not within 10%% of Full %v",
			dtb.MemMaxBytes, full.MemMaxBytes)
	}
}

func TestDtbMemUnconstrainedMatchesFixed1Overhead(t *testing.T) {
	events := churnTrace(2000, kb, 7, 0)
	fixed1 := mustRun(t, events, tinyConfig(core.Fixed{K: 1}))
	dtb := mustRun(t, events, tinyConfig(core.DtbMem{MemMax: 1 << 30}))
	if dtb.TracedTotalBytes > fixed1.TracedTotalBytes*12/10 {
		t.Errorf("unconstrained DtbMem traced %d, want within 20%% of Fixed1 %d",
			dtb.TracedTotalBytes, fixed1.TracedTotalBytes)
	}
}

func TestDtbFMMedianNearTarget(t *testing.T) {
	// Plenty of reclaimable middle-aged storage: DtbFM should push its
	// median traced volume toward TraceMax.
	events := churnTrace(5000, kb, 25, 0)
	target := uint64(20 * kb)
	res := mustRun(t, events, tinyConfig(core.DtbFM{TraceMax: target}))
	med := res.MedianPauseSeconds()
	want := PaperMachine().PauseSeconds(target)
	if med < want*0.5 || med > want*1.5 {
		t.Errorf("DtbFM median pause %v, want within 50%% of target %v", med, want)
	}
}

func TestDtbFMUsesLessMemoryThanFeedMed(t *testing.T) {
	// The Espresso effect (§6.2): an allocation burst forces FeedMed
	// to advance the boundary, tenuring medium-lived objects that die
	// shortly after; FeedMed can never move the boundary back, so the
	// quiet phase that follows leaves that garbage in place forever.
	// DtbFM sees its pauses drop below the budget and widens the
	// window back, reclaiming it.
	r := xrand.New(7)
	b := trace.NewBuilder()
	type death struct {
		id trace.ObjectID
		at int
	}
	var deaths []death
	step := func(i int, life int) {
		b.Advance(100)
		id := b.Alloc(kb)
		deaths = append(deaths, death{id, i + life})
		for k := 0; k < len(deaths); {
			if deaths[k].at <= i {
				b.Free(deaths[k].id)
				deaths = append(deaths[:k], deaths[k+1:]...)
			} else {
				k++
			}
		}
	}
	i := 0
	// Burst: 300 KB of medium-lived data (dies ~35 KB of allocation
	// later, i.e. after tenure under a 15 KB trace budget).
	for ; i < 300; i++ {
		step(i, 30+r.Intn(10))
	}
	// Quiet phase: 4 MB of short-lived churn.
	for ; i < 4300; i++ {
		step(i, 2+r.Intn(3))
	}
	events := b.Events()
	target := uint64(15 * kb)
	fm := mustRun(t, events, tinyConfig(core.FeedMed{TraceMax: target}))
	dtb := mustRun(t, events, tinyConfig(core.DtbFM{TraceMax: target}))
	if dtb.MemMeanBytes >= fm.MemMeanBytes {
		t.Errorf("DtbFM mean memory %v should beat FeedMed %v", dtb.MemMeanBytes, fm.MemMeanBytes)
	}
	// And its median pause should land nearer the target from below.
	fmMed, dtbMed := fm.MedianPauseSeconds(), dtb.MedianPauseSeconds()
	want := PaperMachine().PauseSeconds(target)
	if math.Abs(dtbMed-want) > math.Abs(fmMed-want) {
		t.Errorf("DtbFM median %v further from target %v than FeedMed %v", dtbMed, want, fmMed)
	}
}

func TestCurveRecording(t *testing.T) {
	events := churnTrace(300, kb, 2, 0)
	res := mustRun(t, events, Config{Policy: core.Full{}, TriggerBytes: 10 * kb, RecordCurve: true})
	if res.Curve == nil || res.LiveCurve == nil {
		t.Fatal("curves not recorded")
	}
	if len(res.Curve.Points) == 0 {
		t.Fatal("empty memory curve")
	}
	// Memory curve must dominate live curve at every sampled time.
	for _, p := range res.Curve.Points {
		if p.V+1e-9 < res.LiveCurve.At(p.T) {
			t.Fatalf("memory %v below live %v at t=%v", p.V, res.LiveCurve.At(p.T), p.T)
		}
	}
}

func TestCurveDownsampling(t *testing.T) {
	events := churnTrace(300, kb, 2, 0)
	res := mustRun(t, events, Config{Policy: core.Full{}, TriggerBytes: 10 * kb, RecordCurve: true, CurvePoints: 16})
	if len(res.Curve.Points) > 16 {
		t.Fatalf("curve has %d points, want <= 16", len(res.Curve.Points))
	}
}

func TestNoCurveByDefault(t *testing.T) {
	events := churnTrace(50, kb, 2, 0)
	res := mustRun(t, events, tinyConfig(core.Full{}))
	if res.Curve != nil || res.LiveCurve != nil {
		t.Fatal("curves recorded without RecordCurve")
	}
}

func TestExecSecondsFromMachineModel(t *testing.T) {
	b := trace.NewBuilder()
	b.Alloc(kb)
	b.Advance(20e6) // 20M instructions = 2 s at 10 MIPS
	b.Alloc(kb)
	res := mustRun(t, b.Events(), Config{Mode: ModeNoGC})
	if math.Abs(res.ExecSeconds-2.0) > 1e-9 {
		t.Fatalf("ExecSeconds = %v, want 2.0", res.ExecSeconds)
	}
}

func TestOverheadComputation(t *testing.T) {
	// One full scavenge of 50 KB live data on the paper machine:
	// pause = 50*1024/512000 = 0.1 s. Exec 1 s => 10% overhead.
	b := trace.NewBuilder()
	for i := 0; i < 50; i++ {
		b.Advance(200_000)
		b.Alloc(kb)
	}
	res := mustRun(t, b.Events(), Config{Policy: core.Full{}, TriggerBytes: 50 * kb})
	if res.Collections != 1 {
		t.Fatalf("collections = %d, want 1", res.Collections)
	}
	// 50 KB traced at 500 KB/s = 0.1 s over 50*200k instr = 1 s exec.
	if math.Abs(res.OverheadPct-10.0) > 0.1 {
		t.Fatalf("overhead = %v%%, want ~10%%", res.OverheadPct)
	}
}

func TestHistoryRecordsSurviving(t *testing.T) {
	events := churnTrace(100, kb, 3, 0)
	res := mustRun(t, events, tinyConfig(core.Fixed{K: 1}))
	for _, s := range res.History.Scavenges {
		if s.Surviving > s.MemBefore {
			t.Fatalf("scavenge %d: surviving %d exceeds memory before %d", s.N, s.Surviving, s.MemBefore)
		}
		if s.MemBefore-s.Surviving != s.Reclaimed {
			t.Fatalf("scavenge %d: reclaimed %d inconsistent (before %d after %d)",
				s.N, s.Reclaimed, s.MemBefore, s.Surviving)
		}
	}
}

func TestScavengeConservation(t *testing.T) {
	// Property over random traces: traced + reclaimed <= memBefore and
	// surviving = memBefore - reclaimed at every scavenge, for every
	// policy.
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		b := trace.NewBuilder()
		var live []trace.ObjectID
		for i := 0; i < 1500; i++ {
			b.Advance(uint64(r.Intn(500)))
			if len(live) > 0 && r.Bool(0.45) {
				k := r.Intn(len(live))
				b.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			} else {
				live = append(live, b.Alloc(uint64(r.Range(16, 2048))))
			}
		}
		for _, p := range []core.Policy{core.Full{}, core.Fixed{K: 2}, core.DtbFM{TraceMax: 4 * kb}, core.DtbMem{MemMax: 30 * kb}} {
			res, err := Run(b.Events(), Config{Policy: p, TriggerBytes: 8 * kb})
			if err != nil {
				return false
			}
			for _, s := range res.History.Scavenges {
				if s.Traced+s.Reclaimed > s.MemBefore {
					return false
				}
				if s.Surviving != s.MemBefore-s.Reclaimed {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFullIsMemoryOptimalAmongPolicies(t *testing.T) {
	// Property: no policy uses less max memory than Full on the same
	// trace (Full reclaims everything reclaimable at each trigger).
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		b := trace.NewBuilder()
		var live []trace.ObjectID
		for i := 0; i < 2000; i++ {
			b.Advance(50)
			if len(live) > 0 && r.Bool(0.48) {
				k := r.Intn(len(live))
				b.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			} else {
				live = append(live, b.Alloc(uint64(r.Range(16, 1024))))
			}
		}
		full, err := Run(b.Events(), Config{Policy: core.Full{}, TriggerBytes: 8 * kb})
		if err != nil {
			return false
		}
		for _, p := range []core.Policy{core.Fixed{K: 1}, core.Fixed{K: 4}, core.FeedMed{TraceMax: 4 * kb}, core.DtbFM{TraceMax: 4 * kb}, core.DtbMem{MemMax: 20 * kb}} {
			res, err := Run(b.Events(), Config{Policy: p, TriggerBytes: 8 * kb})
			if err != nil {
				return false
			}
			if res.MemMaxBytes < full.MemMaxBytes-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMachineModelHelpers(t *testing.T) {
	m := PaperMachine()
	if m.Seconds(10e6) != 1 {
		t.Errorf("Seconds(10e6) = %v", m.Seconds(10e6))
	}
	if got := m.PauseSeconds(50 * 1024); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("PauseSeconds(50KB) = %v, want 0.1", got)
	}
}

func TestResultPercentileHelpers(t *testing.T) {
	r := &Result{Pauses: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	if r.MedianPauseSeconds() != 5.5 {
		t.Errorf("median = %v", r.MedianPauseSeconds())
	}
	if r.P90PauseSeconds() != 9.1 {
		t.Errorf("p90 = %v", r.P90PauseSeconds())
	}
	empty := &Result{}
	if empty.MedianPauseSeconds() != 0 || empty.P90PauseSeconds() != 0 {
		t.Error("empty pauses should give 0 percentiles")
	}
}
