package audit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/fault"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// The checkpoint fuzz target's choices. A trace is one of the paper
// profiles at tiny scale with a fuzzed generator seed, or pure churn
// of a fuzzed length, long enough that default-cadence compaction
// retires tape behind it.
const (
	fuzzPaperScale = 0.005
	fuzzTraces     = 7 // six paper profiles, then churn
)

// Interruptions.
const (
	interruptSourceErr = iota
	interruptCancel
	interruptTruncate
	interruptKinds
)

// Source shapes.
const (
	shapeReplay = iota // per-event Replay / Resume
	shapeBatching
	shapeReader
	shapeSlice
	shapeKinds
)

var interruptNames = [interruptKinds]string{"source error", "cancel", "truncation"}
var shapeNames = [shapeKinds]string{"Replay", "BatchingSource", "ReaderBatchSource", "SliceBatchSource"}

// fuzzTrace builds the trace a fuzz input selects.
func fuzzTrace(t *testing.T, sel, seed uint8) []trace.Event {
	t.Helper()
	profiles := workload.PaperProfiles()
	if i := int(sel) % fuzzTraces; i < len(profiles) {
		p := profiles[i].Scale(fuzzPaperScale)
		p.Seed += uint64(seed)
		events, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return events
	}
	return churnTrace(3000+40*int(seed), 256, 12, 0)
}

// fuzzCollectors picks a subset of the oracle's collector matrix —
// six stock policies, three adaptive ones, NoGC and Live — from mask,
// always including the adaptive policy the top bits name. No config
// disables compaction, so the fleet's tape compacts.
func fuzzCollectors(mask uint16) []sim.Config {
	all := collectorConfigs("fuzz", Options{TriggerBytes: 10 * kb, MemMaxBytes: 40 * kb, TraceMaxBytes: 5 * kb})
	const adaptiveAt, adaptiveN = 6, 3
	keep := uint32(mask) | 1<<(adaptiveAt+int(mask>>len(all))%adaptiveN)
	var cfgs []sim.Config
	for i, cfg := range all {
		if keep&(1<<i) != 0 {
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// breakBytes is the byte offset at which event k's record starts in
// the encoding of events: the encoding of a prefix is a prefix of the
// encoding.
func breakBytes(t *testing.T, events []trace.Event, k int) int {
	t.Helper()
	var pre bytes.Buffer
	if err := trace.WriteAll(&pre, events[:k]); err != nil {
		t.Fatal(err)
	}
	return pre.Len()
}

// cancelReader calls cancel once it has delivered a byte at or past
// offset at.
type cancelReader struct {
	r      io.Reader
	off    int
	at     int
	cancel func()
}

func (c *cancelReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.off < c.at+1 && c.off+n > c.at {
		c.cancel()
	}
	c.off += n
	return n, err
}

// prefixThenFail emits events in zero-copy batches, then fails with
// err: a batch-native source that decoded exactly events before its
// failure.
func prefixThenFail(events []trace.Event, err error) engine.BatchSource {
	return func(emit func([]trace.Event) error) error {
		if eerr := engine.SliceBatchSource(events)(emit); eerr != nil {
			return eerr
		}
		return err
	}
}

// cancelBefore emits events in zero-copy batches, calling cancel just
// before the batch that holds event k.
func cancelBefore(events []trace.Event, k int, cancel func()) engine.BatchSource {
	return func(emit func([]trace.Event) error) error {
		n := 0
		return engine.SliceBatchSource(events)(func(b []trace.Event) error {
			if n <= k && k < n+len(b) {
				cancel()
			}
			n += len(b)
			return emit(b)
		})
	}
}

// interrupted runs the replay a fuzz input describes and returns its
// checkpoint and error.
func interrupted(t *testing.T, events []trace.Event, enc []byte, k, interrupt, shape int, cfgs []sim.Config) (*engine.Checkpoint, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	off := breakBytes(t, events, k)
	cut := enc[:off+1] // one byte into event k's record

	var perEvent engine.Source
	var batches engine.BatchSource
	switch {
	case shape == shapeReplay || shape == shapeBatching:
		switch interrupt {
		case interruptSourceErr:
			perEvent = fault.NewPlan(fault.Fault{Kind: fault.SourceErr, Offset: uint64(k)}).Source(engine.SliceSource(events), nil)
		case interruptCancel:
			perEvent = fault.NewPlan(fault.Fault{Kind: fault.Cancel, Offset: uint64(k)}).Source(engine.SliceSource(events), cancel)
		default:
			perEvent = engine.EventReaderSource(trace.NewReader(bytes.NewReader(cut)))
		}
		if shape == shapeBatching {
			batches = engine.BatchingSource(perEvent)
		}
	case shape == shapeReader:
		var r io.Reader = bytes.NewReader(enc)
		switch interrupt {
		case interruptSourceErr:
			r = fault.NewPlan(fault.Fault{Kind: fault.ReadErr, Offset: uint64(off)}).Reader(r)
		case interruptCancel:
			r = &cancelReader{r: r, at: off, cancel: cancel}
		default:
			r = bytes.NewReader(cut)
		}
		batches = engine.ReaderBatchSource(trace.NewReader(r))
	default:
		switch interrupt {
		case interruptSourceErr:
			batches = prefixThenFail(events[:k], fault.ErrInjected)
		case interruptCancel:
			batches = cancelBefore(events, k, cancel)
		default:
			prefix, err := trace.NewReader(bytes.NewReader(cut)).ReadAll()
			batches = prefixThenFail(prefix, err)
		}
	}
	var cp *engine.Checkpoint
	var err error
	if perEvent != nil && batches == nil {
		_, cp, err = engine.ReplayResumable(ctx, perEvent, cfgs)
	} else {
		_, cp, err = engine.ReplayBatchesResumable(ctx, batches, cfgs)
	}
	return cp, err
}

// resumed continues cp from a clean stream in the same source shape.
func resumed(cp *engine.Checkpoint, events []trace.Event, enc []byte, shape int) ([]*sim.Result, *engine.Checkpoint, error) {
	ctx := context.Background()
	switch shape {
	case shapeReplay:
		return cp.Resume(ctx, engine.SliceSource(events))
	case shapeBatching:
		return cp.ResumeBatches(ctx, engine.BatchingSource(engine.SliceSource(events)))
	case shapeReader:
		return cp.ResumeBatches(ctx, engine.ReaderBatchSource(trace.NewReader(bytes.NewReader(enc))))
	default:
		return cp.ResumeBatches(ctx, engine.SliceBatchSource(events))
	}
}

// checkpointResume is the property FuzzCheckpointResume checks for one
// input.
func checkpointResume(t *testing.T, traceSel, traceSeed uint8, breakAt uint32, interruptSel, shapeSel uint8, mask uint16) {
	events := fuzzTrace(t, traceSel, traceSeed)
	var enc bytes.Buffer
	if err := trace.WriteAll(&enc, events); err != nil {
		t.Fatal(err)
	}
	k := int(breakAt % uint32(len(events)))
	interrupt, shape := int(interruptSel)%interruptKinds, int(shapeSel)%shapeKinds
	name := fmt.Sprintf("%s at event %d of %d, %s", interruptNames[interrupt], k, len(events), shapeNames[shape])
	cfgs := fuzzCollectors(mask)

	want := runConfigs(t, cfgs, func(cfgs []sim.Config) ([]*sim.Result, error) {
		return engine.ReplayBatches(context.Background(), engine.SliceBatchSource(events), cfgs)
	})
	got := runConfigs(t, fuzzCollectors(mask), func(cfgs []sim.Config) ([]*sim.Result, error) {
		cp, err := interrupted(t, events, enc.Bytes(), k, interrupt, shape, cfgs)
		if err == nil || cp == nil {
			return nil, fmt.Errorf("%s: interrupted replay gave err=%v, checkpoint %v", name, err, cp)
		}
		switch {
		case interrupt == interruptCancel && !errors.Is(err, context.Canceled):
			return nil, fmt.Errorf("%s: error %v, want context.Canceled", name, err)
		case interrupt == interruptCancel && cp.Events() > k:
			return nil, fmt.Errorf("%s: checkpoint at %d events, past the cancellation", name, cp.Events())
		case interrupt != interruptCancel && cp.Events() != k:
			return nil, fmt.Errorf("%s: checkpoint at %d events, want exactly %d", name, cp.Events(), k)
		case cp.TapeCompaction().Events != cp.Events():
			return nil, fmt.Errorf("%s: compaction watermark taken at %d events, checkpoint at %d", name, cp.TapeCompaction().Events, cp.Events())
		}
		res, cp, err := resumed(cp, events, enc.Bytes(), shape)
		if err != nil || cp != nil {
			return nil, fmt.Errorf("%s: resume: %v (checkpoint %v)", name, err, cp)
		}
		return res, nil
	})
	diffPaths(t, name, got, want)
}

// FuzzCheckpointResume fuzzes checkpoint/resume across traces, break
// offsets, interruptions and source shapes. The fuzz bytes choose a
// trace (a seeded paper profile at tiny scale, or churn), the break
// offset, the interruption (a source error, a cancellation, or a
// decoder truncated inside the break event's record), the source shape
// (per-event Replay, BatchingSource, ReaderBatchSource or
// SliceBatchSource) and a collector subset that always holds an
// adaptive policy, on a compacting fleet. A source error or truncation
// must checkpoint at exactly the break offset, a cancellation at or
// before it; the checkpoint must carry a compaction watermark taken at
// the same event, which resume verifies; and the resumed replay must
// match an uninterrupted one under DiffResults and DiffTelemetry, with
// a clean auditor.
func FuzzCheckpointResume(f *testing.F) {
	// Break offsets come from seeded fault schedules, one per interrupt
	// kind and shape, spread over every trace.
	for i := 0; i < interruptKinds*shapeKinds+2; i++ {
		plan := fault.RandomPlan(uint64(i+1), fault.SourceErr, 1<<15)
		off := uint32(plan.Unfired()[0].Offset)
		f.Add(uint8(i%fuzzTraces), uint8(i/fuzzTraces), off, uint8(i%interruptKinds), uint8(i/interruptKinds%shapeKinds), uint16(0x7ff>>(i%4)))
	}
	f.Fuzz(checkpointResume)
}
