package core

// The adaptive-policy extension: a sanctioned way for a boundary
// policy to carry per-run state and learn online, without giving up
// the determinism the rest of the stack is built on.
//
// The stock Table-1 policies are pure functions of (now, History,
// Heap), and internal/analysis's policypurity analyzer enforces that
// purity. Learned policies — a bandit over candidate boundaries, an
// online gradient controller — need memory between decisions, so the
// contract is widened in exactly one place: an AdaptivePolicy mints a
// fresh PolicyInstance per run, and the *instance* owns all mutable
// state. The rules that keep replay bit-identical:
//
//   - State lives only on the PolicyInstance NewRun returned. No
//     package-level variables, no state on the AdaptivePolicy value
//     itself (it is shared across runs and fleets).
//   - All randomness is drawn from a generator seeded with NewRun's
//     seed (internal/xrand; math/rand and time are forbidden — the
//     policypurity analyzer rejects them in policy code).
//   - The simulator pairs calls strictly: one Boundary, then one
//     Observe for the scavenge that boundary produced, in run order.
//
// ClampBoundary discipline is unchanged: the simulator clamps every
// instance output to [0, now], exactly as for pure policies.

// ScavengeFacts is the feedback a PolicyInstance receives after each
// scavenge: the recorded history entry plus the oracle-derived
// measures only the simulator knows. It mirrors what sim.Probe's
// ScavengeEvent reports, so an adaptive policy learns from the same
// features telemetry already exposes.
type ScavengeFacts struct {
	// Scavenge is the history entry just recorded (N assigned).
	Scavenge Scavenge
	// Live is the oracle live-byte count just after the scavenge;
	// Scavenge.Surviving - Live is the garbage this boundary tenured.
	Live uint64
	// MarkTriggered reports an opportunistic scavenge at a program
	// quiescent point (trace Mark event) rather than the byte budget.
	MarkTriggered bool
}

// TenuredGarbage returns the dead bytes this scavenge left behind:
// storage that was unreachable but immune under the chosen boundary.
func (f ScavengeFacts) TenuredGarbage() uint64 {
	return f.Scavenge.TenuredGarbage(f.Live)
}

// PolicyInstance is the per-run state of an adaptive policy. The
// simulator creates one per run via AdaptivePolicy.NewRun, asks it for
// a boundary before every scavenge, and feeds it the outcome after.
// Instances are never shared between runs: each fleet runner gets its
// own (sim.NewFleet enforces this).
type PolicyInstance interface {
	// Boundary returns TB_n for the scavenge about to run, exactly as
	// Policy.Boundary does; the caller clamps to [0, now]. Unlike a
	// pure policy it may consult and update the instance's own state.
	Boundary(now Time, hist *History, heap Heap) Time
	// Observe delivers the outcome of the scavenge the last Boundary
	// call configured. Calls alternate strictly with Boundary.
	Observe(f ScavengeFacts)
}

// AdaptivePolicy is a Policy that carries per-run state. The Policy
// methods still describe the family (Name for labels; Boundary exists
// so adaptive policies flow through every Policy-typed API, but it
// must not be called directly — implementations panic, loudly, rather
// than silently running stateless). Runners detect the interface and
// route decisions through a per-run instance instead.
type AdaptivePolicy interface {
	Policy
	// NewRun returns a fresh instance whose behavior is a
	// deterministic function of the seed and the observations it will
	// receive. NewRun must not return a previously returned instance.
	NewRun(seed uint64) PolicyInstance
}

// DecisionInfo explains one adaptive decision for telemetry: which
// discrete arm was chosen (or -1 for continuous policies) and a digest
// of the features/state the decision was computed from, so two replay
// paths can be checked for bit-identical decisions without shipping
// the whole feature vector.
type DecisionInfo struct {
	Arm           int    // chosen arm index; -1 when not arm-based
	FeatureDigest uint64 // FNV-1a digest over the decision inputs
}

// DecisionExplainer is optionally implemented by a PolicyInstance to
// expose its last decision's explanation. The simulator attaches it to
// the Decision telemetry event.
type DecisionExplainer interface {
	// LastDecision returns the explanation of the most recent Boundary
	// call, and false if no decision has been made yet.
	LastDecision() (DecisionInfo, bool)
}

// fnvOffset/fnvPrime are the FNV-1a constants used for decision
// digests and seed derivation.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digestUint64 folds one 64-bit word into an FNV-1a digest.
func digestUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}
