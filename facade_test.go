package dtbgc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestSimulateStreamMatchesSimulate(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	opts := SimOptions{Policy: DtbFMPolicy(8 * 1024), TriggerBytes: 128 * 1024}
	direct, err := Simulate(events, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	streamed, err := SimulateStream(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if direct.MemMeanBytes != streamed.MemMeanBytes ||
		direct.Collections != streamed.Collections ||
		direct.TracedTotalBytes != streamed.TracedTotalBytes {
		t.Fatal("streamed simulation diverged")
	}
}

func TestSimulateStreamRejectsGarbage(t *testing.T) {
	if _, err := SimulateStream(strings.NewReader("not a trace"), SimOptions{NoGC: true}); err == nil {
		t.Fatal("garbage input accepted")
	}
}

// TestReaderSourcesMatchSliceSource: StreamSource and RecoveringSource
// decode in fixed batches and emit event by event. Over a clean stream
// both replay bit-identically to SliceSource. Over a torn one
// StreamSource fails, and RecoveringSource replays the complete
// records and reports the tail it dropped.
func TestReaderSourcesMatchSliceSource(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	if len(events) < 4096 {
		t.Fatalf("%d events do not span several decode batches", len(events))
	}
	opts := []SimOptions{
		{Policy: FullPolicy(), TriggerBytes: 64 * 1024},
		{Policy: DtbFMPolicy(8 * 1024), TriggerBytes: 64 * 1024},
		{NoGC: true},
	}
	replay := func(src EventSource, want []*Result, what string) {
		t.Helper()
		got, err := ReplayAll(context.Background(), src, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s replays differently from SliceSource", what)
		}
	}
	want, err := ReplayAll(context.Background(), SliceSource(events), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	replay(StreamSource(bytes.NewReader(enc)), want, "StreamSource")
	src, drops := RecoveringSource(bytes.NewReader(enc))
	replay(src, want, "RecoveringSource")
	if d := drops(); d.Any() {
		t.Fatalf("clean stream: RecoveringSource dropped %v", d)
	}

	// Cut one byte off the final record.
	last := len(events) - 1
	var prefix bytes.Buffer
	if err := WriteTrace(&prefix, events[:last]); err != nil {
		t.Fatal(err)
	}
	torn := enc[:len(enc)-1]
	if _, err := ReplayAll(context.Background(), StreamSource(bytes.NewReader(torn)), opts); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn stream: StreamSource error %v, want io.ErrUnexpectedEOF", err)
	}
	wantTorn, err := ReplayAll(context.Background(), SliceSource(events[:last]), opts)
	if err != nil {
		t.Fatal(err)
	}
	src, drops = RecoveringSource(bytes.NewReader(torn))
	replay(src, wantTorn, "RecoveringSource over a torn stream")
	if d, want := drops(), (DropStats{TornTail: 1, BytesDropped: uint64(len(torn) - prefix.Len())}); d != want {
		t.Fatalf("torn stream: drops %v, want %v", d, want)
	}
}

func TestHistoryCSV(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	res, err := Simulate(events, SimOptions{Policy: FullPolicy(), TriggerBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	csv := HistoryCSV(res)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "n,tKB,tbKB,memBeforeKB,tracedKB,reclaimedKB,survivingKB,pauseMS" {
		t.Fatalf("bad header %q", lines[0])
	}
	if len(lines)-1 != res.Collections {
		t.Fatalf("%d rows for %d collections", len(lines)-1, res.Collections)
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != 7 {
			t.Fatalf("malformed row %q", line)
		}
	}
}

func TestHistoryCSVEmpty(t *testing.T) {
	res, err := Simulate(nil, SimOptions{NoGC: true})
	if err != nil {
		t.Fatal(err)
	}
	csv := HistoryCSV(res)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 1 {
		t.Fatal("empty history should render header only")
	}
}

func TestTenuredGarbageFacade(t *testing.T) {
	events := WorkloadByName("ESPRESSO(2)").Scale(0.05).MustGenerate()
	fixed1, err := Simulate(events, SimOptions{Policy: FixedPolicy(1), TriggerBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(events, SimOptions{Policy: FullPolicy(), TriggerBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if fixed1.TenuredGarbageMeanBytes() <= full.TenuredGarbageMeanBytes() {
		t.Fatalf("Fixed1 garbage %.0f should exceed Full %.0f",
			fixed1.TenuredGarbageMeanBytes(), full.TenuredGarbageMeanBytes())
	}
}

func TestFigure2AsciiFacade(t *testing.T) {
	ev := testEval(t)
	chart, err := ev.Figure2Ascii("GHOST(1)", "Full", 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "Full memory") || !strings.Contains(chart, "live bytes") {
		t.Fatalf("legend missing:\n%s", chart)
	}
	if len(strings.Split(chart, "\n")) < 12 {
		t.Fatal("chart too short")
	}
	if _, err := ev.Figure2Ascii("NOPE", "Full", 60, 12); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunPaperEvaluationPropagatesGenerateErrors(t *testing.T) {
	bad := Workload{Name: "broken"} // fails Validate
	_, err := RunPaperEvaluation(EvalOptions{
		Scale:    1,
		Profiles: []Workload{bad},
	})
	if err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestFitWorkloadFacade(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	w, err := FitWorkload(events, "refit")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "refit" || w.TotalBytes == 0 {
		t.Fatalf("fitted workload %+v", w)
	}
	ls, err := MeasureLifetimes(events)
	if err != nil {
		t.Fatal(err)
	}
	if ls.TotalObjects == 0 {
		t.Fatal("no lifetime data")
	}
}

// TestTablesRenderAbsentCollectors pins the n/a-cell behaviour: a
// hand-assembled (or partially failed) evaluation with missing
// results must render every table without panicking, showing "n/a"
// where there is no measurement.
func TestTablesRenderAbsentCollectors(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.02).MustGenerate()
	full, err := Simulate(events, SimOptions{Policy: FullPolicy(), TriggerBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evaluation{Runs: []RunSet{
		{
			Workload: WorkloadByName("CFRAC"),
			Results:  map[string]*Result{"Full": full}, // everything else absent
		},
		{
			Workload: WorkloadByName("SIS"),
			Results:  nil, // nothing at all, not even the map
		},
	}}
	for i, tab := range []fmt.Stringer{ev.Table2(), ev.Table3(), ev.Table4(), ev.Table6()} {
		s := tab.String()
		if !strings.Contains(s, "n/a") {
			t.Errorf("table %d renders no n/a cells for absent collectors:\n%s", i, s)
		}
	}
	// The one measured cell must still appear in Table 6's Full row.
	if s := ev.Table6().String(); !strings.Contains(s, "CFRAC") {
		t.Errorf("Table6 lost the measured workload row:\n%s", s)
	}
}
