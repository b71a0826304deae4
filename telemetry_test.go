package dtbgc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dtbgc/dtbgc/internal/core"
)

// recordedRun retains every telemetry event of one run in order.
type recordedRun struct {
	events []any
}

func (p *recordedRun) RunStart(e RunStart)      { p.events = append(p.events, e) }
func (p *recordedRun) Decision(e Decision)      { p.events = append(p.events, e) }
func (p *recordedRun) Scavenge(e ScavengeEvent) { p.events = append(p.events, e) }
func (p *recordedRun) Progress(e Progress)      { p.events = append(p.events, e) }
func (p *recordedRun) RunFinish(e RunFinish)    { p.events = append(p.events, e) }

// TestSimulateStreamTelemetryParity: the in-memory and streaming
// entry points must emit identical telemetry (and results) for the
// same trace — a probe cannot tell which one drove the run.
func TestSimulateStreamTelemetryParity(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	mk := func(p Probe) SimOptions {
		return SimOptions{
			Policy:        DtbFMPolicy(8 * 1024),
			TriggerBytes:  128 * 1024,
			Probe:         p,
			Label:         "parity/DtbFM",
			ProgressBytes: 256 * 1024,
		}
	}
	var direct recordedRun
	directRes, err := Simulate(events, mk(&direct))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var streamed recordedRun
	streamedRes, err := SimulateStream(&buf, mk(&streamed))
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.events) == 0 {
		t.Fatal("no telemetry emitted")
	}
	if !reflect.DeepEqual(direct.events, streamed.events) {
		t.Errorf("telemetry diverged: %d direct events vs %d streamed", len(direct.events), len(streamed.events))
		for i := range direct.events {
			if i >= len(streamed.events) || !reflect.DeepEqual(direct.events[i], streamed.events[i]) {
				t.Fatalf("first divergence at event %d:\ndirect:   %+v\nstreamed: %+v", i, direct.events[i], streamed.events[i])
			}
		}
	}
	if !reflect.DeepEqual(directRes, streamedRes) {
		t.Error("results diverged between Simulate and SimulateStream")
	}
}

// TestTelemetryWriterStream checks the JSON-lines sink end to end: a
// run through the root-facade constructor produces one object per
// line with the documented discriminators in the documented order.
func TestTelemetryWriterStream(t *testing.T) {
	events := WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	var buf bytes.Buffer
	tw := NewTelemetryWriter(&buf)
	res, err := Simulate(events, SimOptions{
		Policy:       FullPolicy(),
		TriggerBytes: 128 * 1024,
		Probe:        tw,
		Label:        "CFRAC/Full",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := res.Collections*2 + 2; len(lines) < want {
		t.Fatalf("got %d telemetry lines, want at least %d", len(lines), want)
	}
	if !strings.Contains(lines[0], `"event":"run_start"`) {
		t.Errorf("first line is not run_start: %s", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"event":"run_finish"`) {
		t.Errorf("last line is not run_finish: %s", last)
	}
	for _, line := range lines {
		if !strings.Contains(line, `"label":"CFRAC/Full"`) {
			t.Fatalf("line missing the run label: %s", line)
		}
	}
}

// TestHistoryCSVPauseMismatch: orphaned history rows must render an
// explicit NaN pause, never a fabricated 0.0.
func TestHistoryCSVPauseMismatch(t *testing.T) {
	res := &Result{Pauses: []float64{0.25}}
	res.History.Record(core.Scavenge{T: 1024, TB: 0, MemBefore: 2048, Traced: 512, Reclaimed: 512, Surviving: 1536})
	res.History.Record(core.Scavenge{T: 2048, TB: 1024, MemBefore: 3072, Traced: 256, Reclaimed: 1024, Surviving: 2048})
	csv := HistoryCSV(res)
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), csv)
	}
	if !strings.HasSuffix(lines[1], ",250.0") {
		t.Errorf("row with a pause should render it: %s", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",NaN") {
		t.Errorf("orphaned row should render NaN, got: %s", lines[2])
	}
}

// TestEvalRejectsEmptyProfiles: a non-nil empty profile list is a
// caller bug, not a trivially-passing evaluation.
func TestEvalRejectsEmptyProfiles(t *testing.T) {
	_, err := RunPaperEvaluation(EvalOptions{Profiles: []Workload{}})
	if err == nil {
		t.Fatal("empty Profiles accepted")
	}
	if !strings.Contains(err.Error(), "Profiles is empty") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestEvalRejectsBadScale: a negative, NaN or infinite scale is an
// error before anything is scaled or generated — not a panic, and not
// a trace so long the evaluation runs until its deadline.
func TestEvalRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		_, err := RunPaperEvaluationContext(ctx, EvalOptions{Scale: scale})
		cancel()
		if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "Scale") {
			t.Errorf("scale %v: error %v, want one naming the scale", scale, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("scale %v: refused after %v, want before any work", scale, d)
		}
	}
}

// TestAppEvalRejectsNegativeCounts: a negative app size is an error up
// front; a negative PLA batch used to panic on a worker goroutine.
func TestAppEvalRejectsNegativeCounts(t *testing.T) {
	for _, opts := range []AppEvalOptions{{GhostPages: -1}, {EspressoProblems: -1}, {SisVectors: -1}} {
		if _, err := RunAppEvaluation(opts); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%+v: error %v, want a negative-count error", opts, err)
		}
	}
}

// TestEvalJoinsAllFailures: when several workloads fail, the error
// names each of them, not just the first.
func TestEvalJoinsAllFailures(t *testing.T) {
	bad := func(name string) Workload {
		w := WorkloadByName("CFRAC").Scale(0.01)
		w.Name = name
		w.TotalBytes = 0 // fails Validate inside Generate
		return w
	}
	_, err := RunPaperEvaluation(EvalOptions{Profiles: []Workload{bad("badA"), bad("badB")}})
	if err == nil {
		t.Fatal("invalid profiles accepted")
	}
	for _, name := range []string{"badA", "badB"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("joined error does not mention %s: %v", name, err)
		}
	}
}

// TestEvalTelemetryLabels: the harness labels each run
// "workload/collector" so one sink can demux the concurrent runs.
func TestEvalTelemetryLabels(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTelemetryWriter(&buf)
	w := WorkloadByName("CFRAC").Scale(0.05)
	_, err := RunPaperEvaluation(EvalOptions{
		Profiles:     []Workload{w},
		TriggerBytes: 64 * 1024,
		Probe:        tw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, label := range []string{"CFRAC/Full", "CFRAC/Fixed1", "CFRAC/DtbFM", "CFRAC/NoGC", "CFRAC/Live"} {
		if !strings.Contains(out, `"label":"`+label+`"`) {
			t.Errorf("no telemetry labelled %q", label)
		}
	}
}
