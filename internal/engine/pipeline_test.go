package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
	const batches = 5 * ringSlots // the stream outruns the ring
	events := allocStream(batches*ringBatchEvents + 17)
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
		{"source error", context.Background(), 2*ringSlots*ringBatchEvents + 5, -1, -1, errInjected{}},
		{"emit error", context.Background(), -1, -1, 1, errEmit},
		{"emit error on the final batch", context.Background(), -1, -1, batches, errEmit},
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

	for _, panicAt := range []int{0, ringSlots*ringBatchEvents + 3} {
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

// sliceReader is a BatchReader over events. With failAt >= 0 it fails
// with errInjected once it has handed out failAt of them. It closes
// ended as it makes its last call: the one that fails or ends the
// trace.
type sliceReader struct {
	events []trace.Event
	failAt int
	ended  chan struct{}
}

func (r *sliceReader) ReadBatch(dst []trace.Event) (int, error) {
	if r.failAt >= 0 && r.failAt < len(dst) {
		n := copy(dst, r.events[:r.failAt])
		close(r.ended)
		return n, errInjected{}
	}
	n := copy(dst, r.events)
	r.events = r.events[n:]
	r.failAt -= n
	if n == 0 {
		close(r.ended)
		return 0, io.EOF
	}
	return n, nil
}

// waitUntil polls cond, failing the test instead of hanging if the
// pipeline never gets there.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
	}
}

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) func() bool {
	return func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
}

// TestPipelineDrainsQueuedBatches: a producer that ends, or fails,
// while batches are still queued in the ring has every event it
// produced emitted exactly once and in order — the queued batches,
// then its final partial batch — and only then its error. The
// consumer holds its first batch until the producer has made its last
// read, so the rest are all queued by the time it comes back.
func TestPipelineDrainsQueuedBatches(t *testing.T) {
	// Five full batches and a tail take six of the ring's eight slots,
	// so the producer finishes without the consumer.
	events := allocStream(5*ringBatchEvents + 17)
	perEvent := func(failAt int, ended chan struct{}) BatchSource {
		var returned atomic.Bool
		inner := recordingSource(events, failAt, -1, &returned)
		return BatchingSource(func(emit func(trace.Event) error) error {
			defer close(ended)
			return inner(emit)
		})
	}
	reader := func(failAt int, ended chan struct{}) BatchSource {
		return ReaderBatchSource(&sliceReader{events: events, failAt: failAt, ended: ended})
	}
	failAt := 3*ringBatchEvents + 100
	cases := []struct {
		name   string
		src    func(failAt int, ended chan struct{}) BatchSource
		failAt int
		want   error
	}{
		{"source ends", perEvent, -1, nil},
		{"source fails", perEvent, failAt, errInjected{}},
		{"reader ends", reader, -1, nil},
		{"reader fails", reader, failAt, errInjected{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ended := make(chan struct{})
			var got []trace.Event
			err := tc.src(tc.failAt, ended)(func(b []trace.Event) error {
				if got == nil {
					waitUntil(t, "the producer's last read with the first batch held", closed(ended))
				}
				got = append(got, b...)
				return nil
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			want := events
			if tc.failAt >= 0 {
				want = events[:tc.failAt]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("emit saw %d events, want the producer's %d exactly once and in order", len(got), len(want))
			}
		})
	}
}

// countingSource is a per-event source over events that counts in
// produced the events it has started to emit.
func countingSource(events []trace.Event, produced *atomic.Int64) Source {
	return func(emit func(trace.Event) error) error {
		for _, e := range events {
			produced.Add(1)
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestPipelineRunsAheadWithinRing: while the consumer holds its first
// batch, the producer fills the ring's other seven slots — it gets
// more than one batch ahead — and goes no further until that batch
// comes back.
func TestPipelineRunsAheadWithinRing(t *testing.T) {
	const ring = ringSlots * ringBatchEvents
	events := allocStream(3 * ring)
	var produced atomic.Int64
	var released, overran atomic.Bool
	src := countingSource(events, &produced)
	watched := func(emit func(trace.Event) error) error {
		return src(func(e trace.Event) error {
			if produced.Load() > ring && !released.Load() {
				overran.Store(true)
			}
			return emit(e)
		})
	}
	var got []trace.Event
	err := BatchingSource(watched)(func(b []trace.Event) error {
		if got == nil {
			waitUntil(t, "the producer filling the ring", func() bool { return produced.Load() >= ring })
			// Room for a producer that ignores the ring to show it.
			time.Sleep(20 * time.Millisecond)
			released.Store(true)
		}
		got = append(got, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if overran.Load() {
		t.Errorf("the producer passed the ring's %d events while the consumer held its first batch", ring)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("emit saw %d events, want all %d in order", len(got), len(events))
	}
}

// TestPipelineStopsAfterEmitError: once emit fails, the producer
// finishes at most the batch in progress. With the ring full it cannot
// start another, because the failed batch's slot never comes back.
// With slots free it must still stop at its next hand-off, even though
// the ring would accept the batch; that case runs on one P, so the
// consumer has stopped before the producer, released, runs again.
func TestPipelineStopsAfterEmitError(t *testing.T) {
	events := allocStream(4 * ringSlots * ringBatchEvents)
	// inProgressEnd is the end of the batch that holds event n-1: the
	// producer's batch in progress once it has started n events.
	inProgressEnd := func(n int64) int64 {
		return (n + ringBatchEvents - 1) / ringBatchEvents * ringBatchEvents
	}

	t.Run("ring full", func(t *testing.T) {
		var produced atomic.Int64
		failAt := int64(7*ringBatchEvents + 100) // inside the eighth batch
		var atErr int64
		err := BatchingSource(countingSource(events, &produced))(func([]trace.Event) error {
			waitUntil(t, "the producer's eighth batch", func() bool { return produced.Load() >= failAt })
			atErr = produced.Load()
			return errEmit
		})
		if !errors.Is(err, errEmit) {
			t.Fatalf("error %v, want %v", err, errEmit)
		}
		if n := produced.Load(); n > inProgressEnd(atErr) {
			t.Errorf("producer started %d events, %d when emit failed: past the batch in progress", n, atErr)
		}
	})

	t.Run("slots free", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var produced atomic.Int64
		blockAt := int64(ringBatchEvents + 10) // inside the second batch
		release := make(chan struct{})
		src := countingSource(events, &produced)
		blocking := func(emit func(trace.Event) error) error {
			return src(func(e trace.Event) error {
				if produced.Load() == blockAt {
					<-release
				}
				return emit(e)
			})
		}
		var atErr int64
		err := BatchingSource(blocking)(func([]trace.Event) error {
			atErr = produced.Load()
			close(release)
			return errEmit
		})
		if !errors.Is(err, errEmit) {
			t.Fatalf("error %v, want %v", err, errEmit)
		}
		if atErr != blockAt {
			t.Fatalf("emit ran with %d events started, want the producer blocked at %d", atErr, blockAt)
		}
		if n := produced.Load(); n > inProgressEnd(atErr) {
			t.Errorf("producer started %d events, %d when emit failed: past the batch in progress", n, atErr)
		}
	})
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
// its producer within one 512-event batch of a cancellation, as Replay
// does (see TestReplayCancellation). The skipped prefix counts as
// source work, so the bound is measured from the cancellation point.
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
	if emitted > cancelAt+ringBatchEvents {
		t.Errorf("resume consumed %d events after cancellation, want at most one %d-event stride", emitted-cancelAt, ringBatchEvents)
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
// it: cancelled while batch k is applied, the replay refuses batch
// k+1. By then the producer may have read k+1 through k+7 into the
// ring's other seven slots and k+8 into the slot k frees, and it
// stops at its next hand-off. That is at most the whole ring, 8 × 512
// events, after the cancellation, where BatchingSource's producer,
// which checks the context, stops within one batch.
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
	if over := cr.n.Load() - atCancel; over > ringSlots*ringBatchEvents {
		t.Errorf("generator read %d events after the cancellation, want at most the ring's %d × %d", over, ringSlots, ringBatchEvents)
	}
	if n := cr.n.Load(); n > 8*replayBatchEvents {
		t.Errorf("generator read %d events in all, far past the cancellation", n)
	}
}
