package dtbgc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// recordingProbe captures every telemetry event in arrival order,
// rendered to a stable string per event, demuxed by label. It is safe
// for concurrent use, so it can sit behind both the fan-out engine and
// solo runs.
type recordingProbe struct {
	mu     sync.Mutex
	byRun  map[string][]string
	labels []string
}

func newRecordingProbe() *recordingProbe {
	return &recordingProbe{byRun: make(map[string][]string)}
}

func (p *recordingProbe) record(label string, ev any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.byRun[label]; !ok {
		p.labels = append(p.labels, label)
	}
	p.byRun[label] = append(p.byRun[label], fmt.Sprintf("%T%+v", ev, ev))
}

func (p *recordingProbe) RunStart(e RunStart) { p.record(e.Label, e) }
func (p *recordingProbe) Decision(e Decision) { p.record(e.Label, e) }
func (p *recordingProbe) Scavenge(e ScavengeEvent) {
	p.record(e.Label, e)
}
func (p *recordingProbe) Progress(e Progress) { p.record(e.Label, e) }
func (p *recordingProbe) RunFinish(e RunFinish) {
	// The Result holds pointers (curve series) whose addresses differ
	// between any two runs; full Result equality is asserted separately
	// with DeepEqual, so the sequence records identity fields only.
	p.record(e.Label, fmt.Sprintf("RunFinish{Label:%s Collector:%s Collections:%d}",
		e.Label, e.Result.Collector, e.Result.Collections))
}

// equivalenceMatrix is every collector and baseline of the paper's
// evaluation, labelled for telemetry demuxing.
func equivalenceMatrix(name string, probe Probe) []SimOptions {
	const (
		trigger  = 64 * 1024
		memMax   = 192 * 1024
		traceMax = 12 * 1024
	)
	policies := []Policy{
		FullPolicy(), FixedPolicy(1), FixedPolicy(4),
		MemoryPolicy(memMax), FeedMedPolicy(traceMax), DtbFMPolicy(traceMax),
	}
	var sims []SimOptions
	for _, p := range policies {
		sims = append(sims, SimOptions{
			Policy:       p,
			TriggerBytes: trigger,
			RecordCurve:  true,
			Probe:        probe,
			Label:        name + "/" + p.Name(),
		})
	}
	sims = append(sims,
		SimOptions{NoGC: true, RecordCurve: true, Probe: probe, Label: name + "/NoGC"},
		SimOptions{LiveOracle: true, RecordCurve: true, Probe: probe, Label: name + "/Live"},
	)
	return sims
}

// TestReplayAllEquivalence is the engine's end-to-end contract at the
// facade: for every collector and baseline over every paper workload,
// the single-pass fan-out must produce Results — History, curves, and
// per-run telemetry sequence included — bit-identical to independent
// Simulate calls over the same trace.
func TestReplayAllEquivalence(t *testing.T) {
	for _, w := range Workloads() {
		scaled := w.Scale(0.005)
		events, err := scaled.Generate()
		if err != nil {
			t.Fatalf("%s: generate: %v", w.Name, err)
		}

		fanProbe := newRecordingProbe()
		fanOpts := equivalenceMatrix(w.Name, fanProbe)
		fanned, err := ReplayAll(context.Background(), EventSource(scaled.GenerateTo), fanOpts)
		if err != nil {
			t.Fatalf("%s: ReplayAll: %v", w.Name, err)
		}

		soloProbe := newRecordingProbe()
		soloOpts := equivalenceMatrix(w.Name, soloProbe)
		for i, o := range soloOpts {
			solo, err := Simulate(events, o)
			if err != nil {
				t.Fatalf("%s/%s: Simulate: %v", w.Name, o.Label, err)
			}
			if !reflect.DeepEqual(fanned[i], solo) {
				t.Errorf("%s: fan-out result for %s differs from solo run", w.Name, solo.Collector)
			}
		}

		// Telemetry: each run's event sequence must be identical —
		// same events, same order, same payloads. (Interleaving across
		// runs may differ; per-label order may not.)
		if !reflect.DeepEqual(fanProbe.labels, soloProbe.labels) {
			t.Errorf("%s: fan-out saw runs %v, solo saw %v", w.Name, fanProbe.labels, soloProbe.labels)
		}
		for _, label := range soloProbe.labels {
			if !reflect.DeepEqual(fanProbe.byRun[label], soloProbe.byRun[label]) {
				t.Errorf("%s: telemetry sequence for %s differs between fan-out and solo run", w.Name, label)
			}
		}
	}
}

// TestReplayAllCancellation cancels mid-replay and expects a prompt
// context.Canceled, not a drained trace.
func TestReplayAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scaled := WorkloadByName("GHOST(1)").Scale(0.05)
	emitted := 0
	src := EventSource(func(emit func(Event) error) error {
		return scaled.GenerateTo(func(e Event) error {
			emitted++
			if emitted == 1000 {
				cancel()
			}
			return emit(e)
		})
	})
	results, err := ReplayAll(ctx, src, equivalenceMatrix("GHOST(1)", nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplayAll error = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Error("cancelled replay returned results")
	}
	// The replay checks the context every few thousand events; it must
	// not run anywhere near the full trace after cancellation.
	total := len(scaled.MustGenerate())
	if emitted >= total {
		t.Errorf("cancelled replay drained the whole %d-event trace", total)
	}
}

// TestEvalContextCancellation checks the full evaluation honours a
// cancelled context: prompt return, ctx's own error, no partial
// evaluation handed back.
func TestEvalContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev, err := RunPaperEvaluationContext(ctx, EvalOptions{Scale: 0.01})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunPaperEvaluationContext error = %v, want context.Canceled", err)
	}
	if ev != nil {
		t.Error("cancelled evaluation returned a partial Evaluation")
	}
}
