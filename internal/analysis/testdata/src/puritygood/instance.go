package puritygood

import (
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// Learner is a sanctioned PolicyInstance: it declares the full
// Boundary/Observe method set, so holding and mutating per-run state
// on the receiver is exactly what it is for — as long as the
// randomness is the seeded xrand stream and the history stays
// read-only and unretained.
type Learner struct {
	rng    *xrand.Rand
	plays  int
	reward float64
}

// Boundary updates receiver state and draws seeded randomness: both
// are clean for an instance.
func (l *Learner) Boundary(now core.Time, hist *core.History, heap core.Heap) core.Time {
	l.plays++
	if l.rng.Float64() < 0.1 {
		return 0
	}
	return hist.TimeOfPrevious(1)
}

// Observe accumulates the outcome on the receiver.
func (l *Learner) Observe(f core.ScavengeFacts) {
	l.reward -= float64(f.Scavenge.Traced)
}
