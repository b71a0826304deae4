package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// allocStream is a synthetic trace of n 64-byte allocations, event i
// at instruction i.
func allocStream(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Alloc(trace.ObjectID(i+1), 64, uint64(i))
	}
	return events
}

// recordingSource is a per-event source over events that records its
// own return (panic included) in returned. With failAt >= 0 it fails
// with errInjected after failAt events; with panicAt >= 0 it panics
// with panicValue after panicAt events.
func recordingSource(events []trace.Event, failAt, panicAt int, returned *atomic.Bool) Source {
	return func(emit func(trace.Event) error) error {
		defer returned.Store(true)
		for i, e := range events {
			if i == failAt {
				return errInjected{}
			}
			if i == panicAt {
				panic(panicValue)
			}
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}
}

var panicValue = &struct{ msg string }{"source panic"}

var errEmit = errors.New("emit refused the batch")

// TestPipelineJoinsOnEveryExit: a pipelined adapter returns only after
// its producer has, on every exit path — end of stream, source error,
// emit error, cancellation — and a source panic re-panics on the
// caller's goroutine with the same value, after the join.
func TestPipelineJoinsOnEveryExit(t *testing.T) {
	events := allocStream(5*replayBatchEvents + 17)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name            string
		ctx             context.Context
		failAt, panicAt int
		emitFailsAfter  int // batches accepted before emit fails; -1 never
		want            error
	}{
		{"end of stream", context.Background(), -1, -1, -1, nil},
		{"source error", context.Background(), 2*replayBatchEvents + 5, -1, -1, errInjected{}},
		{"emit error", context.Background(), -1, -1, 1, errEmit},
		{"emit error on the final batch", context.Background(), -1, -1, 5, errEmit},
		{"cancellation", cancelled, -1, -1, -1, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var returned atomic.Bool
			src := batching(tc.ctx, recordingSource(events, tc.failAt, tc.panicAt, &returned))
			batches, fed := 0, 0
			err := src(func(b []trace.Event) error {
				if batches == tc.emitFailsAfter {
					return errEmit
				}
				batches++
				fed += len(b)
				return nil
			})
			if !returned.Load() {
				t.Fatal("adapter returned before its source did")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			if tc.failAt >= 0 && fed != tc.failAt {
				t.Errorf("source failed after %d events, %d reached emit", tc.failAt, fed)
			}
			if tc.want == nil && fed != len(events) {
				t.Errorf("%d of %d events reached emit", fed, len(events))
			}
		})
	}

	for _, panicAt := range []int{0, replayBatchEvents + 3} {
		var returned atomic.Bool
		src := BatchingSource(recordingSource(events, -1, panicAt, &returned))
		v := func() (v any) {
			defer func() { v = recover() }()
			_ = src(func([]trace.Event) error { return nil })
			return nil
		}()
		if v != panicValue {
			t.Fatalf("panic at %d: recovered %v on the caller's goroutine, want the source's panic value", panicAt, v)
		}
		if !returned.Load() {
			t.Fatalf("panic at %d: adapter re-panicked before its source unwound", panicAt)
		}
	}
}

// watchedReader is an io.Reader that counts the Read calls in flight
// and flags any call made after closed is set.
type watchedReader struct {
	r        io.Reader
	active   atomic.Int32
	closed   atomic.Bool
	late     atomic.Bool
	panicAt  int
	consumed int
}

func (w *watchedReader) Read(p []byte) (int, error) {
	w.active.Add(1)
	defer w.active.Add(-1)
	if w.closed.Load() {
		w.late.Store(true)
	}
	if w.panicAt > 0 && w.consumed >= w.panicAt {
		panic(panicValue)
	}
	n, err := w.r.Read(p)
	w.consumed += n
	return n, err
}

// encodeCut encodes events and returns the encoding, and its prefix
// cut one byte into event k's record: the encoding of a prefix is a
// prefix of the encoding, so the record starts at the prefix's length.
func encodeCut(t *testing.T, events []trace.Event, k int) (full, cut []byte) {
	t.Helper()
	var enc, pre bytes.Buffer
	if err := trace.WriteAll(&enc, events); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAll(&pre, events[:k]); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes(), enc.Bytes()[:pre.Len()+1]
}

// TestReaderPipelineJoinsOnEveryExit is the join contract for
// ReaderBatchSource: no decode is in flight, or starts, once the
// adapter has returned — at a clean end, on a decode error, on an emit
// error — and a panic in the decoder's reader re-panics on the caller.
func TestReaderPipelineJoinsOnEveryExit(t *testing.T) {
	data, cut := encodeCut(t, allocStream(4*replayBatchEvents+9), 2*replayBatchEvents+70)
	cases := []struct {
		name           string
		data           []byte
		emitFailsAfter int
		wantErr        bool
	}{
		{"end of stream", data, -1, false},
		{"decode error", cut, -1, true},
		{"emit error", data, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wr := &watchedReader{r: bytes.NewReader(tc.data)}
			batches := 0
			err := ReaderBatchSource(trace.NewReader(wr))(func([]trace.Event) error {
				if batches == tc.emitFailsAfter {
					return errEmit
				}
				batches++
				return nil
			})
			wr.closed.Store(true)
			if (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want error: %v", err, tc.wantErr)
			}
			if wr.active.Load() != 0 {
				t.Fatal("a Read was still in flight when the adapter returned")
			}
			if wr.late.Load() {
				t.Fatal("the decoder read after the adapter returned")
			}
		})
	}

	wr := &watchedReader{r: bytes.NewReader(data), panicAt: len(data) / 2}
	v := func() (v any) {
		defer func() { v = recover() }()
		_ = ReaderBatchSource(trace.NewReader(wr))(func([]trace.Event) error { return nil })
		return nil
	}()
	if v != panicValue {
		t.Fatalf("recovered %v on the caller's goroutine, want the reader's panic value", v)
	}
}

// TestResumeCancellationStride: Resume over a per-event source stops
// its producer within one batch of a cancellation, as Replay does (see
// TestReplayCancellation). The skipped prefix counts as source work,
// so the bound is measured from the cancellation point.
func TestResumeCancellationStride(t *testing.T) {
	const total = 12 * replayBatchEvents
	events := allocStream(total)
	breakAt := 2*replayBatchEvents + 300
	_, cp, err := ReplayResumable(context.Background(), failAfter(events, breakAt, errInjected{}), testMatrix())
	if cp == nil {
		t.Fatalf("interrupted replay gave no checkpoint (err %v)", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAt := breakAt + 100
	emitted := 0
	src := func(emit func(trace.Event) error) error {
		for i, e := range events {
			if i == cancelAt {
				cancel()
			}
			emitted++
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}
	results, _, err := cp.Resume(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Resume error = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("cancelled resume returned results")
	}
	if emitted > cancelAt+replayBatchEvents {
		t.Errorf("resume consumed %d events after cancellation, want at most one %d-event stride", emitted-cancelAt, replayBatchEvents)
	}
}

// TestReaderTruncatedMidBatchResumes: ReaderBatchSource over a stream
// cut inside an event record, strictly inside a batch, checkpoints at
// exactly the prefix the decoder produced, and resuming from the full
// stream is bit-identical to an uninterrupted replay — results and the
// bytes of a telemetry stream shared by every collector.
func TestReaderTruncatedMidBatchResumes(t *testing.T) {
	events := bigTestEvents(t)
	full, _ := encodeCut(t, events, 0)

	var wantTel bytes.Buffer
	want, err := ReplayBatches(context.Background(),
		ReaderBatchSource(trace.NewReader(bytes.NewReader(full))), telemetryMatrix(&wantTel))
	if err != nil {
		t.Fatalf("uninterrupted replay: %v", err)
	}

	for _, k := range []int{replayBatchEvents + 777, 2*replayBatchEvents - 1} {
		_, cut := encodeCut(t, events, k)
		decoded, derr := trace.NewReader(bytes.NewReader(cut)).ReadAll()
		if derr == nil || len(decoded) != k {
			t.Fatalf("cut at event %d: decoder gave %d events, err %v", k, len(decoded), derr)
		}

		var tel bytes.Buffer
		_, cp, rerr := ReplayBatchesResumable(context.Background(),
			ReaderBatchSource(trace.NewReader(bytes.NewReader(cut))), telemetryMatrix(&tel))
		if !errors.Is(rerr, io.ErrUnexpectedEOF) || cp == nil {
			t.Fatalf("cut at event %d: interrupted replay gave err=%v cp=%v", k, rerr, cp)
		}
		if cp.Events() != k {
			t.Fatalf("cut at event %d: checkpoint at %d events, want the decoded prefix", k, cp.Events())
		}
		got, cp, rerr := cp.ResumeBatches(context.Background(),
			ReaderBatchSource(trace.NewReader(bytes.NewReader(full))))
		if rerr != nil || cp != nil {
			t.Fatalf("cut at event %d: resume: %v (checkpoint %v)", k, rerr, cp)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("cut at event %d: %s: resumed result differs from uninterrupted run", k, want[i].Collector)
			}
		}
		if !bytes.Equal(tel.Bytes(), wantTel.Bytes()) {
			t.Errorf("cut at event %d: resumed telemetry stream differs from uninterrupted run", k)
		}
	}
}

// TestPipelineAllocsIndependentOfLength: the pipeline allocates per
// replay, never per batch. Over a fleet that allocates nothing per
// event (each object dies at once; the baselines keep no history),
// replays of traces whose batch counts differ 3x allocate the same.
func TestPipelineAllocsIndependentOfLength(t *testing.T) {
	churn := func(batches int) []trace.Event {
		events := make([]trace.Event, 0, batches*replayBatchEvents)
		for i := 0; len(events) < cap(events); i++ {
			events = append(events,
				trace.Alloc(trace.ObjectID(i+1), 64, uint64(2*i)),
				trace.Free(trace.ObjectID(i+1), uint64(2*i+1)))
		}
		return events
	}
	cfgs := []sim.Config{{Mode: sim.ModeNoGC}, {Mode: sim.ModeLive}}
	paths := map[string]func(events []trace.Event, enc []byte) error{
		"Replay": func(events []trace.Event, _ []byte) error {
			_, err := Replay(context.Background(), SliceSource(events), cfgs)
			return err
		},
		"BatchingSource": func(events []trace.Event, _ []byte) error {
			_, err := ReplayBatches(context.Background(), BatchingSource(SliceSource(events)), cfgs)
			return err
		},
		"ReaderBatchSource": func(_ []trace.Event, enc []byte) error {
			_, err := ReplayBatches(context.Background(), ReaderBatchSource(trace.NewReader(bytes.NewReader(enc))), cfgs)
			return err
		},
	}
	for name, run := range paths {
		var counts []float64
		for _, batches := range []int{2, 6} {
			events := churn(batches)
			var enc bytes.Buffer
			if err := trace.WriteAll(&enc, events); err != nil {
				t.Fatal(err)
			}
			counts = append(counts, testing.AllocsPerRun(5, func() {
				if err := run(events, enc.Bytes()); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: %v allocs per replay of 2 batches, %v of 6: the pipeline allocates per batch", name, counts[0], counts[1])
		}
	}
}

// countingReader counts the events a BatchReader has handed out; the
// count is read from the caller's goroutine while the producer reads.
type countingReader struct {
	rd BatchReader
	n  atomic.Int64
}

func (c *countingReader) ReadBatch(dst []trace.Event) (int, error) {
	n, err := c.rd.ReadBatch(dst)
	c.n.Add(int64(n))
	return n, err
}

// scavengeHook is a probe that calls fn at the first scavenge.
type scavengeHook struct {
	fn   func()
	done bool
}

func (p *scavengeHook) RunStart(sim.RunStart) {}
func (p *scavengeHook) Decision(sim.Decision) {}
func (p *scavengeHook) Scavenge(sim.ScavengeEvent) {
	if !p.done {
		p.done = true
		p.fn()
	}
}
func (p *scavengeHook) Progress(sim.Progress)   {}
func (p *scavengeHook) RunFinish(sim.RunFinish) {}

// TestGeneratedReplayCancellationOverrun pins how far a generator read
// through ReaderBatchSource runs past a cancellation. Its producer
// does not see the context, so only the replay's per-batch check stops
// it: cancelled while a batch is applied, the replay refuses the next
// batch, which the producer has read by then, and the producer reads
// one more into the freed buffer before it sees the stop. That is at
// most two batches after the cancellation, where BatchingSource's
// producer, which checks the context, stops within one.
func TestGeneratedReplayCancellationOverrun(t *testing.T) {
	g, err := workload.Ghost1().Scale(0.1).Generator()
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{rd: g}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atCancel int64
	cfg := sim.Config{Policy: core.Full{}, TriggerBytes: 256 << 10}
	cfg.Probe = &scavengeHook{fn: func() {
		atCancel = cr.n.Load()
		cancel()
	}}
	results, err := ReplayBatches(ctx, ReaderBatchSource(cr), []sim.Config{cfg})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplayBatches error = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("cancelled replay returned results")
	}
	if atCancel == 0 {
		t.Fatal("the replay was never cancelled")
	}
	if over := cr.n.Load() - atCancel; over > 2*replayBatchEvents {
		t.Errorf("generator read %d events after the cancellation, want at most two %d-event batches", over, replayBatchEvents)
	}
	if n := cr.n.Load(); n > 8*replayBatchEvents {
		t.Errorf("generator read %d events in all, far past the cancellation", n)
	}
}
