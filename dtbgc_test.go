package dtbgc

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/dtbgc/dtbgc/internal/trace"
)

func TestPolicyConstructors(t *testing.T) {
	cases := []struct {
		p    Policy
		name string
	}{
		{FullPolicy(), "Full"},
		{FixedPolicy(1), "Fixed1"},
		{FixedPolicy(4), "Fixed4"},
		{FeedMedPolicy(50 * 1024), "FeedMed"},
		{DtbFMPolicy(50 * 1024), "DtbFM"},
		{MemoryPolicy(3000 * 1024), "DtbMem"},
		{PausePolicy(100 * time.Millisecond), "DtbFM"},
	}
	for _, c := range cases {
		if c.p.Name() != c.name {
			t.Errorf("policy name %q, want %q", c.p.Name(), c.name)
		}
	}
}

func TestPausePolicyConvertsToTraceBudget(t *testing.T) {
	// 100 ms at 500 KB/s = 50 KB (the paper's parameters).
	p := PausePolicy(100 * time.Millisecond)
	want := DtbFMPolicy(51200)
	if p != want {
		t.Fatalf("PausePolicy(100ms) = %#v, want %#v", p, want)
	}
}

func TestParsePolicyFacade(t *testing.T) {
	p, err := ParsePolicy("dtbmem:3000k")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "DtbMem" {
		t.Fatalf("parsed %q", p.Name())
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestWorkloadsFacade(t *testing.T) {
	ws := Workloads()
	if len(ws) != 6 {
		t.Fatalf("Workloads() returned %d profiles", len(ws))
	}
	if WorkloadByName("CFRAC").Name != "CFRAC" {
		t.Fatal("WorkloadByName failed")
	}
	if _, err := LookupWorkload("nope"); err == nil {
		t.Fatal("LookupWorkload accepted unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WorkloadByName(nope) did not panic")
		}
	}()
	WorkloadByName("nope")
}

// TestWorkloadByNameTotal: WorkloadByName is total over the published
// catalogue — every name Workloads() lists must resolve through both
// entry points without panicking. WorkloadByName is for compile-time
// constants; LookupWorkload is the entry point for dynamic input.
func TestWorkloadByNameTotal(t *testing.T) {
	for _, w := range Workloads() {
		name := w.Name
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("WorkloadByName(%q) panicked: %v", name, r)
				}
			}()
			if got := WorkloadByName(name); got.Name != name {
				t.Errorf("WorkloadByName(%q).Name = %q", name, got.Name)
			}
		}()
		got, err := LookupWorkload(name)
		if err != nil || got.Name != name {
			t.Errorf("LookupWorkload(%q) = %q, %v", name, got.Name, err)
		}
	}
}

// TestLookupWorkloadErrorListsNames: a mistyped dynamic name must be
// self-diagnosing, not a panic — that is why CLI code goes through
// LookupWorkload rather than WorkloadByName.
func TestLookupWorkloadErrorListsNames(t *testing.T) {
	_, err := LookupWorkload("nope")
	if err == nil {
		t.Fatal("LookupWorkload accepted unknown name")
	}
	if !strings.Contains(err.Error(), "CFRAC") {
		t.Fatalf("error should list valid names, got: %v", err)
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.2).MustGenerate()
	res, err := Simulate(events, SimOptions{Policy: FullPolicy(), TriggerBytes: 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collections == 0 {
		t.Fatal("no collections")
	}
	if res.Collector != "Full" {
		t.Fatalf("collector %q", res.Collector)
	}
}

func TestSimulateBaselines(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	nogc, err := Simulate(events, SimOptions{NoGC: true})
	if err != nil {
		t.Fatal(err)
	}
	live, err := Simulate(events, SimOptions{LiveOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if nogc.Collector != "NoGC" || live.Collector != "Live" {
		t.Fatalf("baseline names %q, %q", nogc.Collector, live.Collector)
	}
	if nogc.MemMaxBytes <= live.MemMaxBytes {
		t.Fatal("NoGC should use far more memory than Live on CFRAC")
	}
}

func TestTraceRoundTripFacade(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.02).MustGenerate()
	var bin, txt bytes.Buffer
	if err := WriteTrace(&bin, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("binary round trip lost events: %d != %d", len(got), len(events))
	}
	if err := WriteTraceText(&txt, events[:50]); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadTraceText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 50 {
		t.Fatalf("text round trip lost events: %d", len(got2))
	}
	if err := ValidateTrace(events); err != nil {
		t.Fatal(err)
	}
}

// TestValidateTraceRejectsIDReuse: an ID reused after its object's
// free passes trace.Validate's liveness checks, but IDs are unique for
// the whole trace, and every replay rejects it as a duplicate
// allocation — so ValidateTrace does too, with the replay's error.
func TestValidateTraceRejectsIDReuse(t *testing.T) {
	events := []Event{trace.Alloc(1, 32, 10), trace.Free(1, 20), trace.Alloc(1, 32, 30)}
	err := ValidateTrace(events)
	if want := "sim: event 2: duplicate allocation of object 1"; err == nil || err.Error() != want {
		t.Fatalf("ValidateTrace = %v, want %q", err, want)
	}
}

func TestDigestTraceFacade(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.02).MustGenerate()
	var bin bytes.Buffer
	if err := WriteTrace(&bin, events); err != nil {
		t.Fatal(err)
	}
	encoded := bin.Bytes()
	d1, n1, err := DigestTrace(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	if n1 != len(events) {
		t.Fatalf("event count %d, want %d", n1, len(events))
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not 64 hex chars", d1)
	}
	// Route independence: digesting the same content again, or after a
	// decode/re-encode round trip, yields the same address.
	d2, _, err := DigestTrace(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest unstable: %s != %s", d1, d2)
	}
	other := WorkloadByName("CFRAC").Scale(0.01).MustGenerate()
	var bin2 bytes.Buffer
	if err := WriteTrace(&bin2, other); err != nil {
		t.Fatal(err)
	}
	d3, _, err := DigestTrace(&bin2)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("different traces share a digest")
	}
	if _, _, err := DigestTrace(bytes.NewReader(encoded[:len(encoded)-3])); err == nil {
		t.Fatal("DigestTrace accepted a trace with a torn final record")
	}
}

// testEval runs a small-scale evaluation shared across table tests.
var testEvalCache *Evaluation

func testEval(t *testing.T) *Evaluation {
	t.Helper()
	if testEvalCache != nil {
		return testEvalCache
	}
	ev, err := RunPaperEvaluation(EvalOptions{
		Scale:        0.10,
		TriggerBytes: 100 * 1024, // keep ~the paper's collection count
		MemMaxBytes:  300 * 1024, // scale the memory budget too
		// Object lifetimes do not scale with run length, so the
		// smallest attainable trace volume per 100 KB interval is the
		// same as at full size (~15 KB of young survivors on GHOST);
		// 20 KB keeps the pause budget meaningful at this scale.
		TraceMaxBytes: 20 * 1024,
		RecordCurves:  true,
		CurvePoints:   400,
	})
	if err != nil {
		t.Fatal(err)
	}
	testEvalCache = ev
	return ev
}

func TestEvaluationShape(t *testing.T) {
	ev := testEval(t)
	if len(ev.Runs) != 6 {
		t.Fatalf("runs = %d", len(ev.Runs))
	}
	for _, rs := range ev.Runs {
		if len(rs.Results) != 8 {
			t.Fatalf("%s: %d results, want 8", rs.Workload.Name, len(rs.Results))
		}
		for _, name := range append(append([]string{}, CollectorOrder...), "NoGC", "Live") {
			if rs.Results[name] == nil {
				t.Fatalf("%s: missing collector %s", rs.Workload.Name, name)
			}
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	tab := testEval(t).Table2()
	if len(tab.Rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"GHOST(1)", "CFRAC", "NoGC", "Live", "Full"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Rendering(t *testing.T) {
	tab := testEval(t).Table3()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 3 has %d rows, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "/") {
				t.Fatalf("Table 3 cell %q missing p50/p90 separator", cell)
			}
		}
	}
}

func TestTable4Rendering(t *testing.T) {
	tab := testEval(t).Table4()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 4 has %d rows", len(tab.Rows))
	}
}

func TestTable6Rendering(t *testing.T) {
	tab := testEval(t).Table6()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 6 has %d rows", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "29500") { // GHOST source lines
		t.Errorf("Table 6 missing metadata:\n%s", s)
	}
}

func TestFigure2CSV(t *testing.T) {
	ev := testEval(t)
	csv, err := ev.Figure2("GHOST(1)", "Full")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 10 {
		t.Fatalf("Figure 2 CSV too short: %d lines", len(lines))
	}
	if lines[0] != "allocatedKB,memKB,liveKB" {
		t.Fatalf("bad header %q", lines[0])
	}
	if _, err := ev.Figure2("GHOST(1)", "NopeCollector"); err == nil {
		t.Fatal("unknown collector accepted")
	}
	if _, err := ev.Figure2("NOPE", "Full"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFigure2Series(t *testing.T) {
	ev := testEval(t)
	mem, live, err := ev.Figure2Series("GHOST(1)", "DtbMem")
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Points) == 0 || len(live.Points) == 0 {
		t.Fatal("empty series")
	}
	// The Figure-2 relationship: the collector's curve dominates the
	// live floor everywhere.
	for _, p := range mem.Points {
		if p.V+1e-9 < live.At(p.T) {
			t.Fatalf("memory %v below live %v at t=%v", p.V, live.At(p.T), p.T)
		}
	}
}

// The six acceptance criteria from DESIGN.md §6, checked on the
// scaled-down evaluation.

func TestClaimMemoryOrdering(t *testing.T) {
	ev := testEval(t)
	for _, rs := range ev.Runs {
		get := func(n string) float64 { return rs.Results[n].MemMeanBytes }
		live, full, nogc := get("Live"), get("Full"), get("NoGC")
		if !(live <= full+1 && full <= nogc+1) {
			t.Errorf("%s: ordering Live(%.0f) <= Full(%.0f) <= NoGC(%.0f) violated",
				rs.Workload.Name, live, full, nogc)
		}
		if get("Fixed4") > get("Fixed1")*1.05 {
			t.Errorf("%s: Fixed4 (%.0f) above Fixed1 (%.0f)",
				rs.Workload.Name, get("Fixed4"), get("Fixed1"))
		}
	}
}

func TestClaimDtbMemMeetsFeasibleConstraint(t *testing.T) {
	ev := testEval(t)
	budget := float64(ev.Options.MemMaxBytes)
	trigger := float64(ev.Options.TriggerBytes)
	for _, rs := range ev.Runs {
		dtb := rs.Results["DtbMem"]
		full := rs.Results["Full"]
		feasible := full.MemMaxBytes <= budget
		if feasible {
			if dtb.MemMaxBytes > budget+trigger {
				t.Errorf("%s: DtbMem max %.0f blew feasible budget %.0f (+trigger %.0f)",
					rs.Workload.Name, dtb.MemMaxBytes, budget, trigger)
			}
		} else if dtb.MemMaxBytes > full.MemMaxBytes*1.25 {
			// Over-constrained: should degrade toward Full (paper saw
			// within 7%; we allow 25% on the scaled runs).
			t.Errorf("%s: over-constrained DtbMem max %.0f not near Full %.0f",
				rs.Workload.Name, dtb.MemMaxBytes, full.MemMaxBytes)
		}
	}
}

func TestClaimFullExtremes(t *testing.T) {
	ev := testEval(t)
	for _, rs := range ev.Runs {
		full := rs.Results["Full"]
		for _, name := range CollectorOrder[1:] {
			r := rs.Results[name]
			if r.MemMaxBytes < full.MemMaxBytes-1e-9 {
				t.Errorf("%s: %s max memory %.0f below Full %.0f",
					rs.Workload.Name, name, r.MemMaxBytes, full.MemMaxBytes)
			}
			if r.TracedTotalBytes > full.TracedTotalBytes {
				t.Errorf("%s: %s traced %d above Full %d",
					rs.Workload.Name, name, r.TracedTotalBytes, full.TracedTotalBytes)
			}
		}
	}
}

func TestClaimDtbFMBeatsFeedMedMemoryOnEspresso(t *testing.T) {
	ev := testEval(t)
	for _, rs := range ev.Runs {
		if !strings.HasPrefix(rs.Workload.Name, "ESPRESSO") {
			continue
		}
		dtb := rs.Results["DtbFM"].MemMeanBytes
		fm := rs.Results["FeedMed"].MemMeanBytes
		if dtb > fm*1.02 {
			t.Errorf("%s: DtbFM mean %.0f should not exceed FeedMed %.0f",
				rs.Workload.Name, dtb, fm)
		}
	}
}

func TestClaimDtbFMMedianNearTarget(t *testing.T) {
	ev := testEval(t)
	m := PaperMachine()
	target := m.PauseSeconds(ev.Options.TraceMaxBytes)
	// On the workloads where the budget is attainable (everything but
	// SIS, whose young-survivor volume exceeds any boundary's reach),
	// the DtbFM median pause should land within 2x of the target.
	for _, rs := range ev.Runs {
		if rs.Workload.Name == "SIS" {
			continue
		}
		med := rs.Results["DtbFM"].MedianPauseSeconds()
		if med > target*2 {
			t.Errorf("%s: DtbFM median %.1f ms far above target %.1f ms",
				rs.Workload.Name, med*1000, target*1000)
		}
	}
}

func TestClaimFixed1LowestOverhead(t *testing.T) {
	ev := testEval(t)
	for _, rs := range ev.Runs {
		f1 := rs.Results["Fixed1"].TracedTotalBytes
		for _, name := range []string{"Full", "Fixed4"} {
			if rs.Results[name].TracedTotalBytes < f1 {
				t.Errorf("%s: %s traced less than Fixed1", rs.Workload.Name, name)
			}
		}
	}
}

func TestTable5Rendering(t *testing.T) {
	tab := testEval(t).Table5()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 5 has %d rows", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"GhostScript", "Espresso", "SIS", "Cfrac"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 5 missing %q", want)
		}
	}
}
