package core

import (
	"fmt"
	"math"

	"github.com/dtbgc/dtbgc/internal/xrand"
)

// gradFeatures is the size of the gradient policy's feature vector.
const gradFeatures = 6

// Gradient is an adaptive policy that learns a boundary *fraction*
// online: TB_n = σ(w·x) · t_{n-1}, a logistic controller over the
// same features the telemetry stream exposes — the previous trigger
// reason, heap pressure, the last traced volume against the budget,
// the true tenured-garbage fraction (from the oracle feedback), and
// the age of the previous scavenge window. After each scavenge the
// weights move along the error signal: traced over budget pushes the
// fraction up (shrink the threatened set), tenured garbage pushes it
// down (collect more), so the controller seeks DTBFM's operating
// point without DTBFM's closed form.
//
// The weight initialization is a small seeded perturbation, so
// distinct seeds explore distinct trajectories while any one run
// stays a deterministic function of (spec, seed, trace).
type Gradient struct {
	Rate     float64 // learning rate; 0 means 0.05
	TraceMax uint64  // trace budget the controller aims for; 0 means 50 KB
}

// rate returns the post-default learning rate.
func (g Gradient) rate() float64 {
	if g.Rate > 0 {
		return g.Rate
	}
	return 0.05
}

// traceMax returns the post-default trace budget.
func (g Gradient) traceMax() uint64 {
	if g.TraceMax > 0 {
		return g.TraceMax
	}
	return 50 * 1024
}

// Name implements Policy.
func (g Gradient) Name() string {
	return fmt.Sprintf("Grad[rate=%g,trace=%d]", g.rate(), g.traceMax())
}

// Boundary implements Policy. See Bandit.Boundary: adaptive families
// fail loudly instead of running stateless.
func (g Gradient) Boundary(Time, *History, Heap) Time {
	panic("core: Gradient is an AdaptivePolicy: call NewRun(seed) and use the PolicyInstance (sim does this automatically)")
}

// NewRun implements AdaptivePolicy.
func (g Gradient) NewRun(seed uint64) PolicyInstance {
	rng := xrand.New(seed)
	inst := &gradientInstance{p: g}
	for i := range inst.w {
		inst.w[i] = 0.01 * rng.NormFloat64()
	}
	return inst
}

// gradientInstance is one run's controller state.
type gradientInstance struct {
	p Gradient
	w [gradFeatures]float64

	// The pending decision's inputs, held for the weight update when
	// its outcome arrives.
	pendingX [gradFeatures]float64
	pendingF float64
	pending  bool

	// The previous scavenge's feedback, the source of the oracle
	// features at the next decision.
	prev    ScavengeFacts
	hasPrev bool

	last    DecisionInfo
	hasLast bool
}

// features assembles the decision-time feature vector. Everything is
// normalized into small ranges so one learning rate serves all
// coordinates.
func (g *gradientInstance) features(now Time, hist *History, heap Heap) [gradFeatures]float64 {
	var x [gradFeatures]float64
	x[0] = 1 // bias
	if g.hasPrev && g.prev.MarkTriggered {
		x[1] = 1 // previous scavenge was opportunistic (trigger reason)
	}
	mem := float64(heap.BytesInUse())
	budget := float64(g.p.traceMax())
	x[2] = mem / (mem + 4*budget) // heap pressure in [0, 1)
	if last, ok := hist.Last(); ok {
		x[3] = math.Min(float64(last.Traced)/budget, 4) / 4 // traced vs budget
		prevT := last.T
		x[4] = float64(now.Sub(prevT)) / math.Max(float64(now.Bytes()), 1) // window age
	}
	if g.hasPrev {
		memB := math.Max(float64(g.prev.Scavenge.MemBefore), 1)
		x[5] = math.Min(float64(g.prev.TenuredGarbage())/memB, 1) // oracle tenured-garbage fraction
	}
	return x
}

// Boundary implements PolicyInstance.
func (g *gradientInstance) Boundary(now Time, hist *History, heap Heap) Time {
	if hist.Len() == 0 {
		g.pending = false // nothing to learn from a forced-full first scavenge
		g.last = DecisionInfo{Arm: -1, FeatureDigest: fnvOffset}
		g.hasLast = true
		return 0
	}
	x := g.features(now, hist, heap)
	var z float64
	for i := range x {
		z += g.w[i] * x[i]
	}
	f := 1 / (1 + math.Exp(-z))
	g.pendingX = x
	g.pendingF = f
	g.pending = true
	digest := uint64(fnvOffset)
	for i := range x {
		digest = digestUint64(digest, math.Float64bits(x[i]))
	}
	digest = digestUint64(digest, math.Float64bits(f))
	g.last = DecisionInfo{Arm: -1, FeatureDigest: digest}
	g.hasLast = true
	prev := hist.TimeOfPrevious(1)
	return TimeAt(uint64(f * float64(prev.Bytes())))
}

// Observe implements PolicyInstance: one online logistic step along
// the signed error of the scavenge the pending decision produced.
func (g *gradientInstance) Observe(f ScavengeFacts) {
	if g.pending {
		budget := float64(g.p.traceMax())
		tracedErr := (float64(f.Scavenge.Traced) - budget) / budget
		tracedErr = math.Max(-1, math.Min(1, tracedErr))
		memB := math.Max(float64(f.Scavenge.MemBefore), 1)
		tgFrac := math.Min(float64(f.TenuredGarbage())/memB, 1)
		// Over budget: raise the fraction (smaller threatened set).
		// Tenured garbage piling up: lower it (collect more).
		delta := tracedErr - tgFrac
		slope := g.pendingF * (1 - g.pendingF)
		step := g.p.rate() * delta * slope
		for i := range g.w {
			g.w[i] += step * g.pendingX[i]
		}
		g.pending = false
	}
	g.prev = f
	g.hasPrev = true
}

// LastDecision implements DecisionExplainer.
func (g *gradientInstance) LastDecision() (DecisionInfo, bool) { return g.last, g.hasLast }

var (
	_ AdaptivePolicy    = Gradient{}
	_ PolicyInstance    = (*gradientInstance)(nil)
	_ DecisionExplainer = (*gradientInstance)(nil)
)
