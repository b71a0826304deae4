package sim

// Test hooks for the external test package sim_test, which can import
// internal/audit (package sim's own tests cannot: audit imports sim).

// ForceShards is forceShards (shard_test.go): every run of f on k
// shards, with 16-event resolve-ahead buffers.
var ForceShards = forceShards

// SetCompactionCadence makes f's tape run its compaction check every
// every events and retire or trim whatever it can, so short inputs
// cross many compaction epochs.
func SetCompactionCadence(f *Fleet, every int) {
	aggressive(f.tape)
	f.tape.checkEvery = every
}
