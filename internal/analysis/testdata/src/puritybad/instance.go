package puritybad

import (
	"math/rand"
	"os"
	"time"

	"github.com/dtbgc/dtbgc/internal/core"
)

// LeakyInstance carries the full PolicyInstance method set, so its
// receiver writes are sanctioned — but the rest of the contract still
// applies: no package-level state, no ambient randomness, no history
// mutation or retention.
type LeakyInstance struct {
	plays int
	saved *core.History
}

// instanceCalls is hidden cross-run state even for instances.
var instanceCalls int

// Boundary holds sanctioned receiver state but breaks every remaining
// rule.
func (l *LeakyInstance) Boundary(now core.Time, hist *core.History, heap core.Heap) core.Time {
	l.plays++              // sanctioned: instance state lives on the receiver
	instanceCalls++        // want: writes package variable
	l.saved = hist         // want: must not retain the history
	if rand.Intn(2) == 0 { // want: math/rand.Intn
		return 0
	}
	if time.Now().UnixNano()%2 == 0 { // want: time.Now
		return 0
	}
	if os.Getenv("DTB_BOUNDARY") != "" { // want: os.Getenv
		return 0
	}
	return hist.TimeOfPrevious(1)
}

// Observe is also policy code: ambient draws are flagged here too.
func (l *LeakyInstance) Observe(core.ScavengeFacts) {
	l.plays++
	_ = rand.Float64() // want: math/rand.Float64
}
