package bench

import "time"

// epoch anchors every host-time reading the benchmark takes, so span
// timestamps are nanoseconds since process start and read from the
// monotonic clock.
var epoch = time.Now() //dtbvet:ignore determinism -- benchmark host-time measurement; no simulated result reads it

// nanotime is the benchmark's only wall-clock read: op times, span
// bounds, latencies and deadlines are all differences of its readings.
// Host time is what the benchmark measures; simulated time never comes
// from here, and every result it times is checked against a digest.
func nanotime() int64 {
	return int64(time.Since(epoch)) //dtbvet:ignore determinism -- benchmark host-time measurement; no simulated result reads it
}
