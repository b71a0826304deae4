package engine

import (
	"context"
	"errors"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// The batch adapters that do real work per batch — BatchingSource
// running a generator, ReaderBatchSource decoding — produce on a
// second goroutine, one batch ahead of the replay. The trace's
// producer reads no collector state, so it can fill the next batch
// while the caller's goroutine applies the current one; everything
// that touches the fleet (resolve, apply, policy and probe callbacks,
// compaction, the replay's per-batch ctx check) stays on the caller's
// goroutine in the same order, so results cannot change. Only the
// producer moves, and it writes into one of two adapter-owned buffers
// while the caller reads the other, so nothing is copied.

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
// own goroutine, at most one batch ahead of emit.
//
//   - Checkpoints stay event-granular: a producer that fails after k
//     events has handed over, or returns as its final batch, exactly
//     those k, and they are emitted before its error. If that emit
//     fails too, the emit error wins, as in BatchingSource.
//   - ctx is checked before every hand-off, so a cancelled replay
//     reads at most the rest of the batch in progress; a batch that
//     could not be handed over is dropped (the replay's own ctx check
//     would refuse it).
//   - The producer is joined before the source returns, on every path,
//     and a panic in it re-panics on the caller's goroutine with the
//     same value.
func pipelined(ctx context.Context, produce producer) BatchSource {
	return func(emit func([]trace.Event) error) error {
		full := make(chan []trace.Event)
		free := make(chan []trace.Event, 1)
		stop := make(chan struct{})
		done := make(chan struct{})
		free <- make([]trace.Event, 0, replayBatchEvents)
		// Written by the producer before it closes done.
		var (
			tail []trace.Event
			perr error
			pval any // a producer panic's value; never nil after a panic
		)
		go func() {
			defer close(done)
			defer func() {
				pval = recover()
			}()
			handoff := func(b []trace.Event) ([]trace.Event, error) {
				if err := ctx.Err(); err != nil {
					return b[:0], err
				}
				select {
				case full <- b:
				case <-stop:
					return b[:0], errPipeStopped
				}
				select {
				case next := <-free:
					return next, nil
				case <-stop:
					return b[:0], errPipeStopped
				}
			}
			tail, perr = produce(make([]trace.Event, 0, replayBatchEvents), handoff)
		}()
		err := func() error {
			defer func() {
				close(stop)
				<-done
			}()
			for {
				select {
				case b := <-full:
					if err := emit(b); err != nil {
						return err
					}
					free <- b[:0]
				case <-done:
					if pval != nil {
						return nil
					}
					if len(tail) > 0 {
						if err := emit(tail); err != nil {
							return err
						}
					}
					return perr
				}
			}
		}()
		if pval != nil {
			panic(pval)
		}
		return err
	}
}
