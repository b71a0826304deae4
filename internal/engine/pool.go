package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one schedulable unit of evaluation work — typically "one
// workload: generate its trace once, replay it under every collector".
// A job owns its result slot, so assembly stays deterministic no
// matter how the pool schedules.
type Job func(ctx context.Context) error

// RunJobs executes the jobs on a bounded worker pool and joins their
// errors.
//
// Concurrency: at most workers jobs run at once; workers <= 0 means
// GOMAXPROCS. Scheduling cannot influence results — each job writes
// only its own slot. A replay may run its source on a second
// goroutine, one batch ahead (see BatchingSource), but that goroutine
// only produces events into a buffer: every fleet step — resolve,
// apply, policy and probe callbacks, compaction — runs on the job's
// own goroutine in trace order, so the results are the same whichever
// goroutine produced the events.
//
// Cancellation: the first failing job cancels the context handed to
// every other job, so in-flight replays abort at their next per-batch
// check — fail-fast. Every job still starts, which
// keeps cheap validation failures visible even after a cancellation:
// a run that breaks several workloads names all of them in one pass.
//
// Cancellation errors are classified by origin, not by kind. A
// Canceled/DeadlineExceeded that arrives after the pool's own
// cancel() fired (or after the parent ctx died) is an induced abort
// and is dropped from the join; one that arrives while both the pool
// and the parent are still live can only have originated inside the
// job itself (e.g. a per-job deadline expiring) and is returned like
// any other failure. Cancellation of the parent ctx is reported as
// the parent's error.
func RunJobs(ctx context.Context, workers int, jobs []Job) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(jobs))
	var aborted atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				err := jobs[i](cctx)
				if err != nil && isCancellation(err) && (aborted.Load() || ctx.Err() != nil) {
					// Induced by the pool's fail-fast cancel or by the
					// parent ctx dying — not this job's own failure.
					// The Store below is sequenced before cancel(), and
					// a job only observes cctx done after cancel(), so
					// an induced job always sees aborted == true here.
					continue
				}
				errs[i] = err
				if err != nil {
					aborted.Store(true)
					cancel() // fail fast: abort the other replays
				}
			}
		}()
	}
	wg.Wait()
	hard := make([]error, 0, len(errs))
	for _, err := range errs {
		if err != nil {
			hard = append(hard, err)
		}
	}
	if len(hard) > 0 {
		return errors.Join(hard...)
	}
	return ctx.Err()
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
