package core

import (
	"fmt"
	"math"

	"github.com/dtbgc/dtbgc/internal/xrand"
)

// Bandit is an adaptive policy that treats boundary selection as a
// multi-armed bandit over a fixed grid of candidate boundaries: arm i
// of K places TB at the fraction i/(K-1) of t_{n-1}, so arm 0 is a
// full collection and arm K-1 is FIXED1's choice. After each scavenge
// the played arm is charged the normalized cost of what the boundary
// bought — bytes traced (CPU) plus tenured garbage left behind
// (memory) over the heap size — and the selector steers toward the
// cheapest arm.
//
// Two selectors are provided: ε-greedy (explore with probability Eps,
// otherwise play the best mean; the paper-adjacent default) and UCB1
// (play the best mean plus UCB·sqrt(ln n / n_i); set UCB > 0 to
// select it, in which case Eps is ignored). Exploration randomness
// comes from the per-run seed, so a run is a deterministic function
// of (spec, seed, trace).
type Bandit struct {
	Eps  float64 // ε-greedy exploration probability (used when UCB == 0)
	UCB  float64 // UCB1 exploration coefficient; > 0 selects UCB mode
	Arms int     // candidate-boundary grid size; 0 means 8, minimum 2
}

// arms returns the post-default grid size.
func (b Bandit) arms() int {
	if b.Arms == 0 {
		return 8
	}
	if b.Arms < 2 {
		return 2
	}
	return b.Arms
}

// Name implements Policy.
func (b Bandit) Name() string {
	if b.UCB > 0 {
		return fmt.Sprintf("Bandit[ucb=%g,arms=%d]", b.UCB, b.arms())
	}
	return fmt.Sprintf("Bandit[eps=%g,arms=%d]", b.Eps, b.arms())
}

// Boundary implements Policy. Adaptive policies do not run stateless:
// calling the family value's Boundary is a bug, and failing loudly
// here beats silently forgetting every observation.
func (b Bandit) Boundary(Time, *History, Heap) Time {
	panic("core: Bandit is an AdaptivePolicy: call NewRun(seed) and use the PolicyInstance (sim does this automatically)")
}

// NewRun implements AdaptivePolicy.
func (b Bandit) NewRun(seed uint64) PolicyInstance {
	k := b.arms()
	return &banditInstance{
		p:       b,
		rng:     xrand.New(seed),
		counts:  make([]uint64, k),
		rewards: make([]float64, k),
		pending: -1,
	}
}

// banditInstance is one run's bandit state.
type banditInstance struct {
	p       Bandit
	rng     *xrand.Rand
	counts  []uint64  // plays per arm
	rewards []float64 // summed reward per arm
	plays   uint64
	pending int // arm awaiting its Observe, -1 when none
	last    DecisionInfo
	hasLast bool
}

// pick selects the arm for the next decision.
func (b *banditInstance) pick() int {
	k := len(b.counts)
	if b.p.UCB > 0 {
		// UCB1: unplayed arms first (lowest index), then the best
		// mean-plus-bonus (ties to the lowest index).
		for i, c := range b.counts {
			if c == 0 {
				return i
			}
		}
		best, bestScore := 0, math.Inf(-1)
		logN := math.Log(float64(b.plays))
		for i := range b.counts {
			score := b.rewards[i]/float64(b.counts[i]) + b.p.UCB*math.Sqrt(logN/float64(b.counts[i]))
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		return best
	}
	// ε-greedy: explore uniformly with probability Eps; otherwise play
	// the best observed mean, unplayed arms counting as mean zero (cost
	// rewards are <= 0, so unplayed arms are tried before any arm with
	// an established cost).
	if b.p.Eps > 0 && b.rng.Float64() < b.p.Eps {
		return b.rng.Intn(k)
	}
	best, bestScore := 0, math.Inf(-1)
	for i := range b.counts {
		var mean float64
		if b.counts[i] > 0 {
			mean = b.rewards[i] / float64(b.counts[i])
		}
		if mean > bestScore {
			best, bestScore = i, mean
		}
	}
	return best
}

// Boundary implements PolicyInstance.
func (b *banditInstance) Boundary(now Time, hist *History, heap Heap) Time {
	prev := hist.TimeOfPrevious(1)
	arm := 0 // first scavenge is full, like every stock policy
	if hist.Len() > 0 {
		arm = b.pick()
	}
	b.pending = arm
	digest := digestUint64(fnvOffset, uint64(arm))
	digest = digestUint64(digest, b.plays)
	digest = digestUint64(digest, prev.Bytes())
	b.last = DecisionInfo{Arm: arm, FeatureDigest: digest}
	b.hasLast = true
	frac := float64(arm) / float64(len(b.counts)-1)
	return TimeAt(uint64(frac * float64(prev.Bytes())))
}

// Observe implements PolicyInstance: charge the played arm the
// normalized scavenge cost (traced bytes plus tenured garbage over the
// pre-scavenge heap size) as a negative reward.
func (b *banditInstance) Observe(f ScavengeFacts) {
	if b.pending < 0 {
		return
	}
	mem := f.Scavenge.MemBefore
	if mem == 0 {
		mem = 1
	}
	cost := (float64(f.Scavenge.Traced) + float64(f.TenuredGarbage())) / float64(mem)
	b.counts[b.pending]++
	b.plays++
	b.rewards[b.pending] += -cost
	b.pending = -1
}

// LastDecision implements DecisionExplainer.
func (b *banditInstance) LastDecision() (DecisionInfo, bool) { return b.last, b.hasLast }

var (
	_ AdaptivePolicy    = Bandit{}
	_ PolicyInstance    = (*banditInstance)(nil)
	_ DecisionExplainer = (*banditInstance)(nil)
)
