package bench

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestMetricNamesMatchBenchmarkJSON keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics an untraced run prints, on every workload.
// events_per_s is the trace events replayed per second of host time:
// each event once, not once per collector, and none for a memo hit.
var endToEnd = []metricDef{
	{"events_per_s", "events/s", "higher"},
	{"heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run prints. A layer that does not
// run in a workload reports 0 there (the README's layer table says
// which run where).
var perLayer = []metricDef{
	{"workload.generate.ns_per_event", "ns/event", "lower"},
	{"workload.generate.allocs_per_event", "allocs/event", "lower"},
	{"workload.generate.bytes_per_event", "B/event", "lower"},
	{"trace.decode.ns_per_event", "ns/event", "lower"},
	{"trace.decode.allocs_per_event", "allocs/event", "lower"},
	{"engine.batch.ns_per_event", "ns/event", "lower"},
	{"engine.batch.allocs_per_event", "allocs/event", "lower"},
	{"engine.pool.wait_s", "s", "lower"},
	{"engine.pool.busy_ratio", "fraction", "higher"},
	{"sim.resolve.ns_per_event", "ns/event", "lower"},
	{"sim.apply.ns_per_event_collector", "ns/event", "lower"},
	{"sim.sweep.ns_per_call", "ns/call", "lower"},
	{"sim.sweep.calls", "count", "lower"},
	{"sim.finish.ms", "ms", "lower"},
	{"core.boundary.ns_per_call", "ns/call", "lower"},
	{"runtime.gc.cpu_share", "fraction", "lower"},
	{"memo_p50_ms", "ms", "lower"},
	{"memo_p99_ms", "ms", "lower"},
	{"tape_p50_ms", "ms", "lower"},
	{"tape_p99_ms", "ms", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p99_ms", "ms", "lower"},
	{"serve_rps", "req/s", "higher"},
	{"daemon.service.memo.p50_ms", "ms", "lower"},
	{"daemon.service.tape.p50_ms", "ms", "lower"},
	{"daemon.service.cold.p50_ms", "ms", "lower"},
	{"daemon.transport.memo.p50_ms", "ms", "lower"},
	{"daemon.transport.tape.p50_ms", "ms", "lower"},
	{"daemon.transport.cold.p50_ms", "ms", "lower"},
	{"daemon.memo_hit_ratio", "fraction", "higher"},
	{"daemon.tape_hit_ratio", "fraction", "higher"},
	{"daemon.upload.ms_per_mb", "ms/MB", "lower"},
	{"ledger.unattributed_ratio", "fraction", "lower"},
	{"ledger.trace_overhead_ratio", "ratio", "lower"},
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so the spreads dtbbench compare prints match the
// acceptance arithmetic. With fewer than two values both quartiles are
// that value.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
