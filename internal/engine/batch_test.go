package engine

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// bigTestEvents is a trace longer than two replay batches, so batch
// boundaries and mid-batch interruptions are actually exercised.
func bigTestEvents(t *testing.T) []trace.Event {
	t.Helper()
	events, err := workload.PaperProfiles()[0].Scale(0.01).Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(events) <= 2*replayBatchEvents {
		t.Fatalf("test trace has %d events, need more than %d", len(events), 2*replayBatchEvents)
	}
	return events
}

// TestBatchSourcesEquivalent: every batch adapter — zero-copy slice
// batches, native ReadBatch decoding, and the per-event buffering
// adapter — must produce results identical to the per-event Replay.
func TestBatchSourcesEquivalent(t *testing.T) {
	events := bigTestEvents(t)
	cfgs := testMatrix()

	want, err := Replay(context.Background(), SliceSource(events), cfgs)
	if err != nil {
		t.Fatalf("per-event Replay: %v", err)
	}

	var enc bytes.Buffer
	if err := trace.WriteAll(&enc, events); err != nil {
		t.Fatalf("encode: %v", err)
	}

	sources := map[string]func() BatchSource{
		"SliceBatchSource": func() BatchSource { return SliceBatchSource(events) },
		"ReaderBatchSource": func() BatchSource {
			return ReaderBatchSource(trace.NewReader(bytes.NewReader(enc.Bytes())))
		},
		"BatchingSource": func() BatchSource { return BatchingSource(SliceSource(events)) },
		"single-event batches": func() BatchSource {
			return func(emit func([]trace.Event) error) error {
				for i := range events {
					if err := emit(events[i : i+1]); err != nil {
						return err
					}
				}
				return nil
			}
		},
	}
	for name, mk := range sources {
		got, err := ReplayBatches(context.Background(), mk(), cfgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: config %d (%s) differs from per-event replay", name, i, want[i].Collector)
			}
		}
	}
}

// telemetryMatrix attaches one shared telemetry stream to the test
// matrix, labelling each run, so interleaved probe output can be
// compared byte for byte between replays.
func telemetryMatrix(buf *bytes.Buffer) []sim.Config {
	cfgs := testMatrix()
	probe := sim.NewTelemetryWriter(buf)
	for i := range cfgs {
		cfgs[i].Probe = probe
		cfgs[i].Label = "batch"
	}
	return cfgs
}

// TestResumeMidBatchBitIdentical is the batching regression test for
// checkpoint granularity: a source failure whose event count lands
// strictly inside a batch (not on a ringBatchEvents boundary) must
// checkpoint at exactly that event, and the resumed replay must merge
// into results and a telemetry sequence bit-identical to an
// uninterrupted replay.
func TestResumeMidBatchBitIdentical(t *testing.T) {
	events := bigTestEvents(t)

	var wantTel bytes.Buffer
	want, err := Replay(context.Background(), SliceSource(events), telemetryMatrix(&wantTel))
	if err != nil {
		t.Fatalf("uninterrupted replay: %v", err)
	}

	breakAts := []int{
		ringBatchEvents + 137, // strictly inside the second batch
		ringBatchEvents - 1,   // just before the first boundary
		2*ringBatchEvents + 1, // just past a boundary
		len(events) - 3,       // inside the final partial batch
	}
	for _, breakAt := range breakAts {
		if breakAt%ringBatchEvents == 0 {
			t.Fatalf("breakAt %d is batch-aligned; the test needs mid-batch offsets", breakAt)
		}
		var tel bytes.Buffer
		boom := errInjected{}
		_, cp, rerr := ReplayResumable(context.Background(),
			failAfter(events, breakAt, boom), telemetryMatrix(&tel))
		if rerr == nil || cp == nil {
			t.Fatalf("breakAt %d: interrupted replay gave err=%v cp=%v", breakAt, rerr, cp)
		}
		if cp.Events() != breakAt {
			t.Fatalf("breakAt %d: checkpoint at %d events — batching rounded the checkpoint", breakAt, cp.Events())
		}
		got, cp, rerr := cp.Resume(context.Background(), SliceSource(events))
		if rerr != nil || cp != nil {
			t.Fatalf("breakAt %d: resume: %v (checkpoint %v)", breakAt, rerr, cp)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("breakAt %d: %s: resumed result differs from uninterrupted run", breakAt, want[i].Collector)
			}
		}
		if !bytes.Equal(tel.Bytes(), wantTel.Bytes()) {
			t.Errorf("breakAt %d: resumed telemetry stream differs from uninterrupted run", breakAt)
		}
	}
}

type errInjected struct{}

func (errInjected) Error() string { return "injected source failure" }

// TestResumeBatchesMidBatch exercises the batch-native resume entry
// point: interrupt via a batch source that fails mid-stream, resume
// via ResumeBatches, same bit-identity contract.
func TestResumeBatchesMidBatch(t *testing.T) {
	events := bigTestEvents(t)
	breakAt := replayBatchEvents + 613

	var wantTel bytes.Buffer
	want, err := Replay(context.Background(), SliceSource(events), telemetryMatrix(&wantTel))
	if err != nil {
		t.Fatalf("uninterrupted replay: %v", err)
	}

	failing := BatchingSource(failAfter(events, breakAt, errInjected{}))
	var tel bytes.Buffer
	_, cp, rerr := ReplayBatchesResumable(context.Background(), failing, telemetryMatrix(&tel))
	if rerr == nil || cp == nil {
		t.Fatalf("interrupted replay gave err=%v cp=%v", rerr, cp)
	}
	if cp.Events() != breakAt {
		t.Fatalf("checkpoint at %d events, want %d", cp.Events(), breakAt)
	}
	got, cp, rerr := cp.ResumeBatches(context.Background(), SliceBatchSource(events))
	if rerr != nil || cp != nil {
		t.Fatalf("resume: %v (checkpoint %v)", rerr, cp)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: resumed result differs from uninterrupted run", want[i].Collector)
		}
	}
	if !bytes.Equal(tel.Bytes(), wantTel.Bytes()) {
		t.Error("resumed telemetry stream differs from uninterrupted run")
	}
}
