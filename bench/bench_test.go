package bench

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/daemon"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// tinyScale shrinks every input so one op of each workload runs in a
// fraction of a second.
const tinyScale = 0.002

// sameList reports the entries of got missing from want and the other
// way round.
func sameList(t *testing.T, what string, got, want []string) {
	t.Helper()
	in := func(s string, list []string) bool {
		for _, v := range list {
			if v == s {
				return true
			}
		}
		return false
	}
	for _, g := range got {
		if !in(g, want) {
			t.Errorf("%s: code has %q, BENCHMARK.json does not", what, g)
		}
	}
	for _, w := range want {
		if !in(w, got) {
			t.Errorf("%s: BENCHMARK.json has %q, code does not", what, w)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defs := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name+" "+d.Unit+" "+d.Better)
		}
		return out
	}
	var e2e, layers, workloads, code []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit+" "+m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	for _, w := range Workloads {
		code = append(code, w.Name)
	}
	sameList(t, "end_to_end", defs(endToEnd), e2e)
	sameList(t, "per_layer", defs(perLayer), layers)
	sameList(t, "workloads", code, workloads)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", b.Paths)
	}
}

// TestWorkloadsRunTinyOps runs every workload untraced and traced on
// tiny inputs: every run must verify and report every metric it owes.
func TestWorkloadsRunTinyOps(t *testing.T) {
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			p := Params{Workload: w.Name, Seed: 7, Seconds: 0, Trace: traced, scale: tinyScale}
			if w.Name == "serve-mix" {
				p.Seconds = 0.3 // enough requests for every class
			}
			h, res, err := Run(context.Background(), p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%q",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, h.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, present %v", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestChurnTraceIsSeeded(t *testing.T) {
	collect := func(seed uint64) []trace.Event {
		var events []trace.Event
		if err := churnTrace(seed, 3*churnWindow)(func(e trace.Event) error {
			events = append(events, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, again, other := collect(1), collect(1), collect(2)
	if err := trace.Validate(a); err != nil {
		t.Fatalf("churn trace is not valid: %v", err)
	}
	if len(a) != 3*churnWindow+2*churnWindow {
		t.Fatalf("churn trace has %d events, want %d", len(a), 5*churnWindow)
	}
	same := func(x, y []trace.Event) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, again) {
		t.Error("the same seed gave two different churn traces")
	}
	if same(a, other) {
		t.Error("seeds 1 and 2 gave the same churn trace")
	}
}

// TestServeMixChecksServedClass feeds a client replies whose source or
// bytes contradict the request it sent.
func TestServeMixChecksServedClass(t *testing.T) {
	c := newServeClient(1, 4, 1)
	k := reqKey{class: classTape, policy: 1, trigger: c.freshTrigger(0)}
	reply := func(source, result string) *daemon.EvalResponse {
		return &daemon.EvalResponse{Source: source, Result: json.RawMessage(result)}
	}
	c.check(k, classTape, 0, reply("tape", `{"a":1}`))
	if c.failed != 0 {
		t.Fatalf("a tape reply to a tape request failed: %q", c.problems)
	}
	c.check(k, classMemo, -1, reply("cold", `{"a":1}`))
	if c.failed != 1 || !strings.Contains(c.problems[0], `served as "cold"`) {
		t.Errorf("a memo request served cold was not failed: %q", c.problems)
	}
	c.check(k, classMemo, -1, reply("memo", `{"a":2}`))
	if c.failed != 2 || !strings.Contains(c.problems[1], "differs from the key's first reply") {
		t.Errorf("a memo reply with other bytes was not failed: %q", c.problems)
	}
	c.check(k, classMemo, -1, reply("memo", `{"a":1}`))
	if c.failed != 2 || c.served[classMemo] != 2 || c.intended[classMemo] != 3 {
		t.Errorf("after one good memo hit: failed=%d served=%d intended=%d", c.failed, c.served[classMemo], c.intended[classMemo])
	}
}

// TestServeRoundsAreFreshSweeps pins the structure the serve-mix mix
// follows from: a round is every policy on every target at one
// trigger, and no two rounds share a trigger.
func TestServeRoundsAreFreshSweeps(t *testing.T) {
	const tapes, colds = 3, 3
	triggers := map[uint64]bool{}
	c := newServeClient(5, 4, 1)
	for round := 0; round < 6; round++ {
		keys := c.nextRound(tapes, colds)
		if want := len(servePolicies) * (tapes + colds); len(keys) != want {
			t.Fatalf("round %d: %d requests, want %d", round, len(keys), want)
		}
		seen := map[reqKey]bool{}
		var perClass [numClasses]int
		for _, k := range keys {
			if seen[k] {
				t.Errorf("round %d: %+v sent twice", round, k)
			}
			seen[k] = true
			perClass[k.class]++
			if k.trigger != keys[0].trigger {
				t.Errorf("round %d: triggers %d and %d in one round", round, k.trigger, keys[0].trigger)
			}
		}
		if perClass[classTape] != perClass[classCold] || perClass[classMemo] != 0 {
			t.Errorf("round %d: requests per class %v, want equal tape and cold, no memo", round, perClass)
		}
		if triggers[keys[0].trigger] {
			t.Errorf("round %d: trigger %d reused", round, keys[0].trigger)
		}
		triggers[keys[0].trigger] = true
	}
}

func TestGoldenDigestMismatchFailsRun(t *testing.T) {
	p := Params{Workload: "churn-decode", Seed: 1, scale: tinyScale, golden: goldenTable{}}
	h, res, err := Run(context.Background(), p)
	if err != nil || !res.Correct {
		t.Fatalf("run without golden: err=%v correct=%v problems=%q", err, res != nil && res.Correct, h.Problems)
	}
	p.golden = goldenTable{"churn-decode": {"1": h.Digest}}
	if _, res, err := Run(context.Background(), p); err != nil || !res.Correct {
		t.Fatalf("run against its own digest: err=%v correct=%v", err, res != nil && res.Correct)
	}
	corrupt := []byte(h.Digest)
	corrupt[0] ^= 1
	p.golden = goldenTable{"churn-decode": {"1": string(corrupt)}}
	h, res, err = Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(h.Problems) == 0 || !strings.Contains(h.Problems[0], "golden") {
		t.Errorf("corrupted golden digest: correct=%v failed=%d problems=%q", res.Correct, res.Failed, h.Problems)
	}
}

func TestCommittedGoldenCoversEveryWorkload(t *testing.T) {
	for _, w := range Workloads {
		for _, seed := range goldenSeeds {
			if _, ok := committedGolden.lookup(w.Name, seed); !ok {
				t.Errorf("golden.json has no digest for %s seed %d (run dtbbench --update-golden)", w.Name, seed)
			}
		}
	}
}

// TestHostKernelIsInvisibleToTheProgram pins what makes the calibration
// kernel independent of the code it scales: it allocates nothing, and
// its memory is not on the Go heap that heap_mb reads.
func TestHostKernelIsInvisibleToTheProgram(t *testing.T) {
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	hs, err := newHostSpeed()
	if err != nil {
		t.Fatal(err)
	}
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Errorf("the Go heap grew by %d bytes with the kernel's %d-byte memory mapped", grew, kernelWords*8)
	}
	if allocs := testing.AllocsPerRun(3, hs.k.run); allocs != 0 {
		t.Errorf("one kernel run allocates %v times", allocs)
	}
	hs.mark()
	mean := (hs.times[0] + hs.times[1]) / 2
	if got := hs.scaleLast(mean); math.Abs(got-refKernelNs) > 1e-6*refKernelNs {
		t.Errorf("a time equal to the mean kernel time scales to %v ns, want %v", got, refKernelNs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python 3: statistics.quantiles(data, n=4).
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{5, 7, 1, 3, 9, 11, 2}, 2, 9},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.data); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"identical", shift(0), true, Same},
		{"small loss within bound", shift(-3), true, Same},
		{"loss beyond bound", shift(-20), true, Worse},
		{"gain beyond spread", shift(5), true, Better},
		{"lower is better: a rise is a loss", shift(20), false, Worse},
	}
	for _, c := range cases {
		if got := verdict(base, c.b, c.higher, 0.1, true); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 60, 140, 100, 90, 110, 100}
	if got := verdict(noisy, noisy, true, 0.1, true); got != Unresolved {
		t.Errorf("parent spread wider than the bound: verdict %s, want %s", got, Unresolved)
	}
}
