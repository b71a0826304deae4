package engine

import (
	"context"
	"errors"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// The batch adapters that do real work per batch — BatchingSource
// running a generator, ReaderBatchSource decoding — produce on a
// second goroutine, up to seven batches ahead of the replay. The
// trace's producer reads no collector state, so it can fill the next
// batches while the caller's goroutine applies the current one;
// everything that touches the fleet (resolve, apply, policy and probe
// callbacks, compaction, the replay's per-batch ctx check) stays on the
// caller's goroutine in the same order, so results cannot change. Only
// the producer moves, and it writes into a ring of adapter-owned slots
// that the caller reads in turn, so nothing is copied.
//
// The ring is eight slots of 512 events, one 256 KB allocation per
// replay. A hand-off that finds the other goroutine parked costs a
// wake-up, about 56 µs on a 2-vCPU host, and a consumer that waits for
// every one sits idle for a fifth of a decoded replay. With up to seven
// batches queued, neither goroutine parks after every batch. The shape
// is measured, not derived: eight 256-event slots (1,792 queued
// events) did not cover a wake-up and lost throughput, and eight
// 1024-event slots hid the wake-ups too but held twice the bytes.
const (
	ringSlots       = 8
	ringBatchEvents = 512
)

// errPipeStopped is what a producer's hand-off returns once the
// caller has stopped taking batches (its emit failed, or it is
// unwinding a panic). It never escapes the adapter: the caller returns
// its own error.
var errPipeStopped = errors.New("engine: batch consumer stopped")

// producer fills buf with the stream's next events and passes each
// full batch to handoff, which returns the emptied buffer to fill next
// or an error to stop with. It returns the final partial batch and the
// stream's error, nil at a clean end.
type producer func(buf []trace.Event, handoff handoffFunc) ([]trace.Event, error)

// handoffFunc passes a filled batch to the caller's goroutine and
// returns the buffer to fill next.
type handoffFunc func(batch []trace.Event) ([]trace.Event, error)

// pipelined turns a producer into a BatchSource that runs it on its
// own goroutine, filling the slots of a ring that emit drains in
// order.
//
//   - Checkpoints stay event-granular: a producer that fails after k
//     events has handed over, or returns as its final batch, exactly
//     those k, and they are emitted in order before its error: the
//     batches still queued, then the final one. If an emit fails too,
//     the emit error wins, as in BatchingSource.
//   - ctx is checked before every hand-off, so a cancelled replay
//     reads at most the rest of the batch in progress; a batch that
//     could not be handed over is dropped (the replay's own ctx check
//     would refuse it). Once emit has failed, the producer stops at
//     its next hand-off the same way, even where the ring has room.
//   - The producer is joined before the source returns, on every path,
//     and a panic in it re-panics on the caller's goroutine with the
//     same value.
func pipelined(ctx context.Context, produce producer) BatchSource {
	return func(emit func([]trace.Event) error) error {
		// Each slot's capacity ends where the next slot starts. Both
		// channels have room for every slot, so neither send blocks.
		// The producer starts on slot 0 and closes full as it returns.
		ring := make([]trace.Event, ringSlots*ringBatchEvents)
		full := make(chan []trace.Event, ringSlots)
		free := make(chan []trace.Event, ringSlots)
		stop := make(chan struct{})
		for i := ringBatchEvents; i < len(ring); i += ringBatchEvents {
			free <- ring[i : i : i+ringBatchEvents]
		}
		// Written by the producer before it closes full.
		var (
			tail []trace.Event
			perr error
			pval any // a producer panic's value; never nil after a panic
		)
		go func() {
			defer close(full)
			defer func() {
				pval = recover()
			}()
			handoff := func(b []trace.Event) ([]trace.Event, error) {
				if err := ctx.Err(); err != nil {
					return b[:0], err
				}
				select {
				case <-stop:
					return b[:0], errPipeStopped
				default:
					full <- b
				}
				select {
				case next := <-free:
					return next, nil
				case <-stop:
					return b[:0], errPipeStopped
				}
			}
			tail, perr = produce(ring[:0:ringBatchEvents], handoff)
		}()
		err := func() error {
			defer func() {
				close(stop)
				for range full {
				}
			}()
			for b := range full {
				if err := emit(b); err != nil {
					return err
				}
				free <- b[:0]
			}
			if pval != nil {
				return nil
			}
			if len(tail) > 0 {
				if err := emit(tail); err != nil {
					return err
				}
			}
			return perr
		}()
		if pval != nil {
			panic(pval)
		}
		return err
	}
}
