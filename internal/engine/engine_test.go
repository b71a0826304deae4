package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// testMatrix is a representative collector matrix: a policy of each
// boundary family plus both baselines.
func testMatrix() []sim.Config {
	const trigger = 32 * 1024
	return []sim.Config{
		{Policy: core.Full{}, TriggerBytes: trigger},
		{Policy: core.Fixed{K: 1}, TriggerBytes: trigger},
		{Policy: core.DtbFM{TraceMax: 8 * 1024}, TriggerBytes: trigger},
		{Policy: core.DtbMem{MemMax: 96 * 1024}, TriggerBytes: trigger},
		{Mode: sim.ModeNoGC},
		{Mode: sim.ModeLive},
	}
}

func testEvents(t *testing.T) []trace.Event {
	t.Helper()
	events, err := workload.PaperProfiles()[0].Scale(0.002).Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty test trace")
	}
	return events
}

// TestReplayMatchesSoloRuns is the engine's core contract: fanning one
// trace out to N runners yields results bit-identical to N independent
// solo runs over the same trace.
func TestReplayMatchesSoloRuns(t *testing.T) {
	events := testEvents(t)
	cfgs := testMatrix()

	got, err := Replay(context.Background(), SliceSource(events), cfgs)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("Replay returned %d results, want %d", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := sim.Run(events, cfg)
		if err != nil {
			t.Fatalf("solo run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("config %d (%s): fan-out result differs from solo run", i, want.Collector)
		}
	}
}

// TestReplaySingleSourcePass pins the one-pass guarantee: however many
// configs are replayed, the source is invoked exactly once and each
// event is produced exactly once.
func TestReplaySingleSourcePass(t *testing.T) {
	events := testEvents(t)
	var calls, emitted int
	src := func(emit func(trace.Event) error) error {
		calls++
		for _, e := range events {
			emitted++
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := Replay(context.Background(), src, testMatrix()); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if calls != 1 {
		t.Errorf("source ran %d times, want exactly 1", calls)
	}
	if emitted != len(events) {
		t.Errorf("source emitted %d events, want %d", emitted, len(events))
	}
}

// TestReaderSource checks the streaming decode path, over a strict and
// a recovering reader, produces the same results as the in-memory path.
func TestReaderSource(t *testing.T) {
	events := testEvents(t)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, events); err != nil {
		t.Fatalf("encode: %v", err)
	}
	cfgs := testMatrix()
	fromSlice, err := Replay(context.Background(), SliceSource(events), cfgs)
	if err != nil {
		t.Fatalf("slice replay: %v", err)
	}
	for _, rd := range []*trace.Reader{
		trace.NewReader(bytes.NewReader(buf.Bytes())),
		trace.NewRecoveringReader(bytes.NewReader(buf.Bytes())),
	} {
		fromReader, err := ReplayBatches(context.Background(), ReaderBatchSource(rd), cfgs)
		if err != nil {
			t.Fatalf("reader replay: %v", err)
		}
		if !reflect.DeepEqual(fromSlice, fromReader) {
			t.Error("streaming replay differs from in-memory replay")
		}
		if rd.Drops().Any() {
			t.Errorf("clean stream reported drops: %v", rd.Drops())
		}
	}
}

// TestReplayCancellation cancels the context mid-stream and expects
// the replay to stop at the next event-boundary check instead of
// draining the trace.
func TestReplayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 10 * replayBatchEvents
	emitted := 0
	src := func(emit func(trace.Event) error) error {
		for i := 0; i < total; i++ {
			if i == 100 {
				cancel()
			}
			emitted++
			if err := emit(trace.Alloc(trace.ObjectID(i+1), 64, uint64(i))); err != nil {
				return err
			}
		}
		return nil
	}
	results, err := Replay(ctx, src, testMatrix())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay error = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Error("cancelled replay returned results")
	}
	// The producer checks ctx at every 512-event hand-off, so the
	// replay must stop within one stride of the cancellation point.
	if emitted > 100+ringBatchEvents {
		t.Errorf("replay consumed %d events after cancellation, want prompt stop", emitted-100)
	}
}

// TestReplayFeedErrorNamesCollector checks a runner's feed error is
// labelled with the collector that rejected the event.
func TestReplayFeedErrorNamesCollector(t *testing.T) {
	bad := []trace.Event{
		trace.Alloc(1, 64, 0),
		trace.Free(2, 1), // never allocated
	}
	_, err := Replay(context.Background(), SliceSource(bad), []sim.Config{{Policy: core.Full{}}})
	if err == nil {
		t.Fatal("Replay accepted a free of an unknown object")
	}
	if !strings.Contains(err.Error(), "Full") {
		t.Errorf("feed error %q does not name the collector", err)
	}
}

// TestReplayRunnerConstructionError checks an invalid config surfaces
// before any source work happens.
func TestReplayRunnerConstructionError(t *testing.T) {
	calls := 0
	src := func(emit func(trace.Event) error) error {
		calls++
		return nil
	}
	_, err := Replay(context.Background(), src, []sim.Config{{Mode: sim.ModePolicy}}) // no Policy
	if err == nil {
		t.Fatal("Replay accepted ModePolicy without a Policy")
	}
	if calls != 0 {
		t.Error("source ran despite runner construction failing")
	}
}

func TestRunJobsBounded(t *testing.T) {
	const workers = 2
	var cur, peak atomic.Int64
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			return nil
		}
	}
	if err := RunJobs(context.Background(), workers, jobs); err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, want at most %d", p, workers)
	}
}

// TestRunJobsFailFast checks a hard error cancels the context seen by
// the jobs that are still running.
func TestRunJobsFailFast(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	sawCancel := make(chan struct{}, 1)
	jobs := []Job{
		func(ctx context.Context) error {
			<-failed // guarantee the failing job finishes first
			select {
			case <-ctx.Done():
				sawCancel <- struct{}{}
				return ctx.Err()
			case <-time.After(5 * time.Second):
				return errors.New("cancellation never arrived")
			}
		},
		func(ctx context.Context) error {
			defer close(failed)
			return boom
		},
	}
	err := RunJobs(context.Background(), 2, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("RunJobs error = %v, want boom", err)
	}
	select {
	case <-sawCancel:
	default:
		t.Error("surviving job never observed the fail-fast cancellation")
	}
}

// TestRunJobsJoinsHardErrors checks every hard failure is reported —
// not just the first — while fail-fast cancellations are dropped from
// the join.
func TestRunJobsJoinsHardErrors(t *testing.T) {
	errA := errors.New("workload A invalid")
	errB := errors.New("workload B invalid")
	jobs := []Job{
		func(ctx context.Context) error { return errA },
		func(ctx context.Context) error { return ctx.Err() }, // cancelled by fail-fast
		func(ctx context.Context) error { return errB },
	}
	err := RunJobs(context.Background(), 1, jobs)
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("RunJobs error = %v, want both hard errors joined", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Error("fail-fast cancellation leaked into the joined error")
	}
}

// TestRunJobsParentCancel checks cancelling the caller's context is
// reported as that context's own error.
func TestRunJobsParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	jobs := []Job{
		func(ctx context.Context) error { ran.Add(1); return ctx.Err() },
		func(ctx context.Context) error { ran.Add(1); return ctx.Err() },
	}
	err := RunJobs(ctx, 2, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJobs error = %v, want context.Canceled", err)
	}
	// Jobs still start (they observe cancellation themselves), so cheap
	// validation failures stay visible even under cancellation.
	if ran.Load() != 2 {
		t.Errorf("%d jobs started, want all 2", ran.Load())
	}
}

// TestRunJobsDeterministicAssembly runs the same job set under many
// schedules and checks the per-slot outcomes never vary.
func TestRunJobsDeterministicAssembly(t *testing.T) {
	out := make([]int, 16)
	var mu sync.Mutex
	jobs := make([]Job, len(out))
	for i := range jobs {
		jobs[i] = func(ctx context.Context) error {
			mu.Lock()
			out[i] = i + 1
			mu.Unlock()
			return nil
		}
	}
	for _, workers := range []int{1, 3, 0} {
		for i := range out {
			out[i] = 0
		}
		if err := RunJobs(context.Background(), workers, jobs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i+1)
			}
		}
	}
}
