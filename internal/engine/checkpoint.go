package engine

import (
	"context"
	"errors"
	"fmt"

	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Checkpoint/resume for Replay: when a replay aborts between events —
// a source read error, a context cancellation — the fleet is still
// consistent (every runner has processed exactly the events before the
// abort point), so the replay can continue from a reopened source
// instead of starting over. The resumed run's results and telemetry
// are bit-identical to an uninterrupted run: the runners are the same
// objects carrying the same state, and the skipped prefix is decoded
// but never re-fed.
//
// Batching does not change the granularity: a checkpoint may land
// strictly mid-batch (a source that fails after k events emits those k
// before the error — see BatchingSource — and a resumed replay trims
// the first batches down to the unprocessed suffix), so Events() is an
// exact event count, never rounded to a batch boundary.
//
// A checkpoint is in-memory only — fleet state (tape, per-runner heap
// views, probe chain) is live program state, not a serializable
// snapshot — so resume serves the retry-in-process case: transient
// fault, reopen, continue. A trace validation error is *not*
// resumable: the offending event can never be applied, so retrying the
// same stream would fail the same way.
//
// Adaptive-policy state is the one exception to "live state is the
// checkpoint": it is captured as opaque per-runner snapshots at
// checkpoint creation and restored at resume, so the learned state a
// resumed replay continues from is exactly what the checkpoint saw —
// even if someone touched the in-memory instances in between.
//
// The tape's compaction watermark gets the same treatment: captured
// at checkpoint creation and verified at resume. Compaction retires
// tape state that cannot be resurrected, so the "restore" direction
// is a bit-exact equality check — the watermark is a pure function of
// the events fed (the cadence counts events, not batches), and a
// mismatch means the fleet diverged from the checkpoint in between.
type Checkpoint struct {
	fleet  *sim.Fleet
	events int
	policy [][]byte
	tape   sim.TapeCompaction
}

// Events returns the number of events every runner had processed when
// the replay was interrupted.
func (c *Checkpoint) Events() int { return c.events }

// TapeCompaction returns the compaction watermark the shared tape
// carried at the interruption point: how many ordinals epoch-based
// compaction had retired and which trace IDs went with them. Tests
// use it to prove a resume crossed a compaction epoch.
func (c *Checkpoint) TapeCompaction() sim.TapeCompaction { return c.tape }

// feedError marks a fleet feed failure — a trace validation error —
// which no retry can get past and is therefore not resumable; source
// and context errors, which land between events, are.
type feedError struct{ err error }

func (e *feedError) Error() string { return e.err.Error() }
func (e *feedError) Unwrap() error { return e.err }

// ReplayResumable is Replay returning a Checkpoint alongside a
// resumable error: source failures and context cancellation yield a
// non-nil checkpoint from which Resume continues; config and runner
// feed errors yield a nil checkpoint (nothing consistent to resume).
// On success the checkpoint is nil and the results are exactly
// Replay's.
func ReplayResumable(ctx context.Context, src Source, cfgs []sim.Config) ([]*sim.Result, *Checkpoint, error) {
	return ReplayBatchesResumable(ctx, batching(ctx, src), cfgs)
}

// ReplayBatchesResumable is ReplayResumable over a batch-native
// source.
func ReplayBatchesResumable(ctx context.Context, src BatchSource, cfgs []sim.Config) ([]*sim.Result, *Checkpoint, error) {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, nil, fmt.Errorf("engine: config %d: %w", i, err)
		}
	}
	fleet, err := sim.NewFleet(cfgs)
	if err != nil {
		return nil, nil, err
	}
	return replayFrom(ctx, src, fleet, 0)
}

// Resume continues the interrupted replay from a reopened source. The
// source must replay the same stream from the beginning: the first
// Events() events are decoded and discarded (the runners already
// processed them), and feeding resumes at the interruption point —
// even mid-batch. A source that ends before reaching the checkpoint is
// an error. Resume can itself be interrupted and resumed again.
//
// The checkpoint owns its fleet: after a successful Resume the runners
// are finished and the checkpoint must not be resumed again.
func (c *Checkpoint) Resume(ctx context.Context, src Source) ([]*sim.Result, *Checkpoint, error) {
	return c.ResumeBatches(ctx, batching(ctx, src))
}

// ResumeBatches is Resume over a batch-native source.
func (c *Checkpoint) ResumeBatches(ctx context.Context, src BatchSource) ([]*sim.Result, *Checkpoint, error) {
	// Re-arm the adaptive policies with the state the checkpoint
	// recorded. A restore failure means the checkpoint itself is bad —
	// nothing consistent to resume from.
	if err := c.fleet.RestorePolicyState(c.policy); err != nil {
		return nil, nil, fmt.Errorf("engine: resume: %w", err)
	}
	// Verify the tape against the recorded compaction watermark: a
	// fleet that was fed (or compacted) past the checkpoint would
	// resume from the wrong state.
	if err := c.fleet.RestoreTapeCompaction(c.tape); err != nil {
		return nil, nil, fmt.Errorf("engine: resume: %w", err)
	}
	return replayFrom(ctx, src, c.fleet, c.events)
}

// replayFrom is the shared replay core: pull event batches from src,
// discard the first skip events (already processed; a batch straddling
// the boundary is trimmed, not rounded), deliver the rest to the fleet
// batch by batch, and classify any abort as resumable or not.
// Cancellation is checked once per batch, before the batch is applied,
// so an aborted replay has fed exactly the batches it acknowledged.
//
//dtbvet:hotpath the engine fan-out loop: one closure call per batch
func replayFrom(ctx context.Context, src BatchSource, fleet *sim.Fleet, skip int) ([]*sim.Result, *Checkpoint, error) {
	n := 0
	err := src(func(batch []trace.Event) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if n < skip {
			k := min(skip-n, len(batch))
			n += k
			batch = batch[k:]
			if len(batch) == 0 {
				return nil
			}
		}
		if ferr := fleet.FeedBatch(batch); ferr != nil {
			return &feedError{fmt.Errorf("%s: %w", fleet.Runners()[0].Collector(), ferr)}
		}
		n += len(batch)
		return nil
	})
	if err != nil {
		var fe *feedError
		if errors.As(err, &fe) {
			return nil, nil, fe.err
		}
		if n < skip {
			return nil, nil, fmt.Errorf("engine: resume: source failed %d event(s) before the checkpoint at %d: %w", skip-n, skip, err)
		}
		return nil, &Checkpoint{
			fleet:  fleet,
			events: n,
			policy: fleet.SnapshotPolicyState(),
			tape:   fleet.SnapshotTapeCompaction(),
		}, err
	}
	if n < skip {
		return nil, nil, fmt.Errorf("engine: resume: source delivered %d event(s), checkpoint expects at least %d", n, skip)
	}
	return fleet.Finish(), nil, nil
}
