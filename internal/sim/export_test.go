package sim

// Test hooks for the external test package sim_test, which can import
// internal/audit (package sim's own tests cannot: audit imports sim).

// TuneRuns is tuneRuns: f cuts its runs at 16 events and, unless
// summary is set, applies them event by event.
var TuneRuns = tuneRuns

// SetCompactionCadence makes f's tape run its compaction check every
// every events and retire or trim whatever it can, so short inputs
// cross many compaction epochs.
func SetCompactionCadence(f *Fleet, every int) {
	aggressive(f.tape)
	f.tape.checkEvery = every
}

// SoloRuns reports how many events the fleet behind a NewRunner runner
// resolves ahead at most, and whether it applies them event by event.
func SoloRuns(r *Runner) (resolveAhead int, perEvent bool) {
	return len(r.solo.buf), r.solo.perEvent
}

// TapeIndexMapped reports whether f's tape resolves trace IDs through
// its map rather than by arithmetic (see tape.lookup).
func TapeIndexMapped(f *Fleet) bool { return f.tape.index != nil }

// CompactingChurnTrace is compactingChurnTrace: n objects of pure
// churn, built by trace.Builder, with marks and pointer writes.
var CompactingChurnTrace = compactingChurnTrace

// ScriptedBoundary is scriptedBoundary: a policy whose boundary cycles
// forward to now, back to 0 and part way, untenuring garbage.
type ScriptedBoundary = scriptedBoundary
