// Package engine is the evaluation chassis: one generate/decode pass
// over a trace fanned out to N independent sim.Runners, plus a bounded
// worker pool that schedules workload jobs under context cancellation.
//
// The paper's entire evaluation is "one trace, many collectors"
// (§5–6): every workload replays under six policies plus the NoGC and
// Live baselines. Replay feeds each event exactly once to every
// runner, so the trace is produced once per workload regardless of
// collector count — and from a streaming source (a workload generator
// or a trace decoder, read in batches) it never materializes in memory
// at all. RunJobs schedules those per-workload replays on a
// bounded pool with fail-fast cancellation and deterministic result
// assembly; every future scaling layer (policy sweeps, sharded runs,
// learned-policy search) plugs into the same two primitives.
package engine

import (
	"context"
	"io"

	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Source streams one trace in event order: it calls emit for every
// event and stops at the first emit error, which it returns unchanged
// (wrapped errors keep working with errors.Is).
// workload.Profile.GenerateTo satisfies this signature directly.
type Source func(emit func(trace.Event) error) error

// SliceSource adapts an in-memory trace to a Source.
func SliceSource(events []trace.Event) Source {
	return func(emit func(trace.Event) error) error {
		for _, e := range events {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// replayBatchEvents is the length of the batches SliceBatchSource
// cuts from an in-memory trace: the events delivered to the fleet and
// covered by one cancellation check. Large enough to amortize the
// per-batch costs (context check, fleet dispatch) to nothing per
// event, small enough that cancellation still lands within a sliver of
// a run. The pipelined adapters deliver batches of ringBatchEvents
// instead (see pipelined). The fleet resolves each batch in runs of at
// most 1024 events of its own (see sim.Fleet.FeedBatch), so the batch
// size does not set the apply working set, and results do not depend
// on it.
const replayBatchEvents = 4096

// BatchSource streams one trace as event batches in trace order: it
// calls emit for each batch and stops at the first emit error, which
// it returns unchanged (wrapped errors keep working with errors.Is).
// Batches are delivery units only — checkpoints remain event-granular
// (see Checkpoint) — and the slice passed to emit is only valid for
// the duration of the call. emit always runs on the goroutine that
// called the source.
//
// A BatchSource that fails mid-stream must emit the events it decoded
// before the failure first (see BatchingSource): replay checkpoints
// assume every decoded event before the error reached the runners.
//
// BatchingSource and ReaderBatchSource read ahead through a ring of
// eight 512-event batches: they produce on a second goroutine, up to
// seven batches ahead of the one emit is applying, and join that
// goroutine before they return (see pipelined). SliceBatchSource is
// synchronous: an in-memory slice has no work to overlap.
type BatchSource func(emit func([]trace.Event) error) error

// SliceBatchSource adapts an in-memory trace to a BatchSource,
// emitting zero-copy subslices of at most replayBatchEvents events on
// the caller's goroutine.
func SliceBatchSource(events []trace.Event) BatchSource {
	return func(emit func([]trace.Event) error) error {
		for len(events) > 0 {
			n := min(replayBatchEvents, len(events))
			if err := emit(events[:n]); err != nil {
				return err
			}
			events = events[n:]
		}
		return nil
	}
}

// BatchReader reads a trace in batches with trace.Reader.ReadBatch's
// contract: fill dst in place and return how many events it holds; a
// short count with a nil error ends the trace, and the next call
// returns (0, io.EOF); on a failure the events before it come with the
// error. The trace decoders (*trace.Reader, strict or recovering) and
// the workload generator (*workload.Generator) are BatchReaders.
type BatchReader interface {
	ReadBatch(dst []trace.Event) (int, error)
}

// ReaderBatchSource adapts a BatchReader — a trace decoder, strict
// (trace.NewReader) or recovering (trace.NewRecoveringReader), or a
// workload generator — to a BatchSource: one ReadBatch call per batch,
// each filling a 512-event slot of the adapter's ring in place, with
// no per-event call between the reader and the fleet. The loop runs on
// a second goroutine, reading into the free slots while emit applies
// the current one (see pipelined). If the reader fails mid-batch, the
// batches still queued are emitted, then the events it read before
// the failure.
//
// The reading goroutine does not see the replay's context, only the
// replay does, once per batch: after a cancellation the reader may
// read up to the whole ring (7 × 512 queued events, plus 512 into the
// slot the applied batch frees) past the one being applied, where
// BatchingSource's producer stops within one batch.
func ReaderBatchSource(rd BatchReader) BatchSource {
	return pipelined(context.Background(), func(buf []trace.Event, handoff handoffFunc) ([]trace.Event, error) {
		for {
			n, err := rd.ReadBatch(buf[:cap(buf)])
			if err == io.EOF {
				return nil, nil
			}
			if err != nil {
				return buf[:n], err
			}
			if buf, err = handoff(buf[:n]); err != nil {
				return buf, err
			}
		}
	})
}

// BatchingSource adapts a per-event Source to a BatchSource by
// buffering up to 512 events per emit. The source runs on a second
// goroutine, filling the free slots of the adapter's ring while emit
// applies the current one (see pipelined). If the source fails
// mid-stream, the queued batches and then the buffered prefix are
// flushed before the error is returned, so every event the source
// produced has reached the runners — exactly the per-event source's
// behavior, which is what keeps checkpoints event-granular under
// batching. If both the flush and the source fail, the flush error
// wins (it decides resumability).
func BatchingSource(src Source) BatchSource {
	return batching(context.Background(), src)
}

// batching is BatchingSource with its producer checking ctx before
// every hand-off, so a cancelled replay stops the source within one
// batch: without it, the producer could fill the whole ring before the
// replay's own ctx check refused the next batch.
func batching(ctx context.Context, src Source) BatchSource {
	return pipelined(ctx, func(buf []trace.Event, handoff handoffFunc) ([]trace.Event, error) {
		err := src(func(e trace.Event) error {
			buf = append(buf, e)
			if len(buf) < cap(buf) {
				return nil
			}
			var herr error
			buf, herr = handoff(buf)
			return herr
		})
		return buf, err
	})
}

// Replay feeds the source's events once to one fresh runner per config
// and returns the finished results in config order. The source runs
// exactly once no matter how many configs there are — the single-pass
// fan-out the evaluation harness is built on.
//
// Each runner is single-threaded and sees the identical event sequence
// a solo run would, so every result (History and telemetry sequence
// included) is bit-identical to an independent run over the same
// trace. A runner's feed error aborts the replay labelled with that
// collector's name; a source error aborts it unchanged; cancellation
// of ctx is checked once per batch, before the batch is applied, and
// returns ctx's error. The source runs on a second goroutine, up to
// seven 512-event batches ahead of the runners (see BatchingSource),
// and stops within one batch of a cancellation.
func Replay(ctx context.Context, src Source, cfgs []sim.Config) ([]*sim.Result, error) {
	// Config validation happens before constructing any runner (see
	// ReplayBatchesResumable): construction emits the probe's RunStart,
	// so a bad config halfway through the set would otherwise leave the
	// earlier runners' telemetry streams opened but never finished.
	results, _, err := ReplayResumable(ctx, src, cfgs)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ReplayBatches is Replay over a batch-native source: the replay hot
// path runs on batches end to end, with no per-event adapter between
// the decoder and the fleet. Replay itself reduces to this via
// BatchingSource.
func ReplayBatches(ctx context.Context, src BatchSource, cfgs []sim.Config) ([]*sim.Result, error) {
	results, _, err := ReplayBatchesResumable(ctx, src, cfgs)
	if err != nil {
		return nil, err
	}
	return results, nil
}
