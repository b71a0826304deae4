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
