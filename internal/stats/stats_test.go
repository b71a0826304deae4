package stats

import (
	"math"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dtbgc/dtbgc/internal/xrand"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Sum() != 0 {
		t.Fatalf("empty summary not all-zero: %v", s.String())
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d, want 5", s.N())
	}
	if !almostEq(s.Sum(), 14) {
		t.Errorf("Sum = %v, want 14", s.Sum())
	}
	if !almostEq(s.Mean(), 2.8) {
		t.Errorf("Mean = %v, want 2.8", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
}

func TestSummaryNegative(t *testing.T) {
	var s Summary
	s.Add(-7)
	s.Add(2)
	if s.Min() != -7 || s.Max() != 2 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryMinMaxInvariant(t *testing.T) {
	check := func(vals []float64) bool {
		var s Summary
		for _, v := range vals {
			// Skip values whose sum could overflow float64; the
			// invariant is about ordering, not extreme-range
			// arithmetic.
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return true
			}
			s.Add(v)
		}
		if len(vals) == 0 {
			return true
		}
		return s.Min() <= s.Mean()+1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
		{40, 20 + 0.6*15}, // rank 1.6 between 20 and 35
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); !almostEq(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{5, 1, 3}
	Percentile(vals, 50)
	if vals[0] != 5 || vals[1] != 1 || vals[2] != 3 {
		t.Fatalf("Percentile mutated input: %v", vals)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v, want 0", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	for _, p := range []float64{0, 50, 90, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("Percentile([7], %v) = %v", p, got)
		}
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{-1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(p=%v) did not panic", p)
				}
			}()
			Percentile([]float64{1}, p)
		}()
	}
}

func TestPercentileSortedAgrees(t *testing.T) {
	check := func(vals []float64, praw uint8) bool {
		clean := vals[:0:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		p := float64(praw) / 255 * 100
		want := Percentile(clean, p)
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		got := PercentileSorted(sorted, p)
		return almostEq(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianMonotoneInvariant(t *testing.T) {
	// The median lies between min and max for any input.
	check := func(vals []float64) bool {
		clean := vals[:0:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Median(clean)
		lo, hi := clean[0], clean[0]
		for _, v := range clean {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMaxHelpers(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("Mean/Max of empty slice should be 0")
	}
	vals := []float64{2, 8, 5}
	if !almostEq(Mean(vals), 5) {
		t.Errorf("Mean = %v", Mean(vals))
	}
	if Max(vals) != 8 {
		t.Errorf("Max = %v", Max(vals))
	}
}

func TestWeightedConstant(t *testing.T) {
	var w Weighted
	w.Observe(0, 10)
	w.Observe(5, 10)
	w.Finish(10)
	if !almostEq(w.Mean(), 10) {
		t.Fatalf("constant function mean = %v, want 10", w.Mean())
	}
	if w.Max() != 10 {
		t.Fatalf("Max = %v", w.Max())
	}
}

func TestWeightedStep(t *testing.T) {
	// Value 0 on [0,10), value 100 on [10,20): mean = 50.
	var w Weighted
	w.Observe(0, 0)
	w.Observe(10, 100)
	w.Finish(20)
	if !almostEq(w.Mean(), 50) {
		t.Fatalf("step function mean = %v, want 50", w.Mean())
	}
	if w.Max() != 100 {
		t.Fatalf("Max = %v, want 100", w.Max())
	}
}

func TestWeightedUnevenIntervals(t *testing.T) {
	// 1 for 9 time units, then 11 for 1: mean = (9*1 + 1*11)/10 = 2.
	var w Weighted
	w.Observe(0, 1)
	w.Observe(9, 11)
	w.Finish(10)
	if !almostEq(w.Mean(), 2) {
		t.Fatalf("mean = %v, want 2", w.Mean())
	}
}

func TestWeightedEmpty(t *testing.T) {
	var w Weighted
	if w.Mean() != 0 || w.Max() != 0 {
		t.Fatal("empty Weighted should report zeros")
	}
	w.Finish(100) // no-op when never observed
	if w.Mean() != 0 {
		t.Fatal("Finish on empty Weighted should not create mass")
	}
}

func TestWeightedTimeRegressionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("time regression did not panic")
		}
	}()
	var w Weighted
	w.Observe(5, 1)
	w.Observe(4, 1)
}

// weightedRun is one ObserveRun case: a run of points after the
// statistic's last point (t0, v0), and its value integral.
// randomRun's ws and vsum are the statistic's sums before the run, and
// exact says they are integers inside the window.
type weightedRun struct {
	t0, v0   uint64
	ts, vs   []uint64
	hi, lo   uint64
	t, v     uint64
	straddle bool // the run's sums or points pass 2^53
}

// randomRun draws a run of up to 12 points after (t0, v0): times
// nondecreasing with a third of the steps zero, values rising, both
// scaled by 2^shift so that some runs pass 2^53 and some stay inside.
func randomRun(rng *xrand.Rand, t0, v0, ws, vsum uint64, exact bool, shift uint) weightedRun {
	r := weightedRun{t0: t0, v0: v0, t: t0, v: v0}
	for k := rng.Intn(13); k > 0; k-- {
		dt := uint64(0)
		if !rng.Bool(1.0 / 3) {
			dt = uint64(rng.Int63n(1<<shift)) + 1
		}
		hi, lo := bits.Mul64(dt, r.v)
		var c uint64
		r.lo, c = bits.Add64(r.lo, lo, 0)
		r.hi += hi + c
		r.t += dt
		r.v += uint64(rng.Int63n(1 << shift))
		r.ts, r.vs = append(r.ts, r.t), append(r.vs, r.v)
	}
	r.straddle = !exact || r.t > 1<<53 || r.v > 1<<53 || r.hi != 0 || r.lo > 1<<53 || ws+(r.t-t0) > 1<<53 || vsum+r.lo > 1<<53
	return r
}

// sameWeighted reports whether two statistics agree bit for bit.
func sameWeighted(a, b *Weighted) bool {
	fa := []float64{a.lastT, a.lastV, a.weightSum, a.valueSum, a.max}
	fb := []float64{b.lastT, b.lastV, b.weightSum, b.valueSum, b.max}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.started == b.started
}

// TestWeightedObserveRunMatchesObserve is the property behind summary
// apply: inside the exact window ObserveRun leaves every field
// bit-identical to observing the run point by point — checked through
// Mean and Max, then through one more Observe — and a run that passes
// 2^53 anywhere, or a statistic that has not started, makes it return
// false with the statistic untouched.
func TestWeightedObserveRunMatchesObserve(t *testing.T) {
	rng := xrand.New(20240613)
	applied, refused := 0, 0
	for c := 0; c < 4000; c++ {
		shift := uint(4 + rng.Intn(30))
		var w Weighted
		tNow, vNow := uint64(rng.Int63n(1<<shift)), uint64(rng.Int63n(1<<shift))
		w.Observe(float64(tNow), float64(vNow))
		for k := rng.Intn(4); k > 0; k-- {
			tNow += uint64(rng.Int63n(1 << shift))
			vNow += uint64(rng.Int63n(1 << shift))
			w.Observe(float64(tNow), float64(vNow))
		}
		ws, okW := exactUint(w.weightSum)
		vs, okV := exactUint(w.valueSum)
		r := randomRun(rng, tNow, vNow, ws, vs, okW && okV, shift)

		seq, sum := w, w
		for i := range r.ts {
			seq.Observe(float64(r.ts[i]), float64(r.vs[i]))
		}
		ok := sum.ObserveRun(r.t0, r.v0, r.t, r.v, r.hi, r.lo)
		if r.straddle {
			refused++
			if ok || !sameWeighted(&sum, &w) {
				t.Fatalf("case %d: run passing 2^53 returned %v, statistic changed %v", c, ok, !sameWeighted(&sum, &w))
			}
			continue
		}
		applied++
		if !ok {
			t.Fatalf("case %d: run inside the window refused: %+v", c, r)
		}
		next := float64(r.t + uint64(rng.Int63n(1<<shift)))
		for step := 0; step < 2; step++ {
			if math.Float64bits(seq.Mean()) != math.Float64bits(sum.Mean()) || math.Float64bits(seq.Max()) != math.Float64bits(sum.Max()) {
				t.Fatalf("case %d, step %d: ObserveRun mean %v max %v, Observe mean %v max %v", c, step, sum.Mean(), sum.Max(), seq.Mean(), seq.Max())
			}
			seq.Observe(next, 1)
			sum.Observe(next, 1)
		}
	}
	if applied < 1000 || refused < 1000 {
		t.Fatalf("%d runs inside the window, %d passing it: both kinds need coverage", applied, refused)
	}

	var fresh Weighted
	if fresh.ObserveRun(0, 0, 10, 5, 0, 0) || !sameWeighted(&fresh, &Weighted{}) {
		t.Fatal("ObserveRun on a statistic that has not started")
	}
	var w Weighted
	w.Observe(7, 3)
	before := w
	if !w.ObserveRun(7, 3, 7, 3, 0, 0) || !sameWeighted(&w, &before) {
		t.Fatal("a run of no points changed the statistic")
	}
	if w.ObserveRun(6, 3, 9, 3, 0, 6) || !sameWeighted(&w, &before) {
		t.Fatal("a run starting from another point than the statistic's last was applied")
	}
}

func TestWeightedZeroDurationSpikeIgnoredInMeanButNotMax(t *testing.T) {
	var w Weighted
	w.Observe(0, 1)
	w.Observe(5, 1000) // spike held for zero time
	w.Observe(5, 1)
	w.Finish(10)
	if !almostEq(w.Mean(), 1) {
		t.Fatalf("mean = %v, want 1 (spike has zero duration)", w.Mean())
	}
	if w.Max() != 1000 {
		t.Fatalf("max = %v, want 1000", w.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, v := range []float64{0, 5, 9.99, 10, 49.9, 50, 1000, -3} {
		h.Add(v)
	}
	if h.N() != 8 {
		t.Errorf("N = %d", h.N())
	}
	if h.Bucket(0) != 4 { // 0, 5, 9.99, -3
		t.Errorf("bucket 0 = %d, want 4", h.Bucket(0))
	}
	if h.Bucket(1) != 1 { // 10
		t.Errorf("bucket 1 = %d, want 1", h.Bucket(1))
	}
	if h.Bucket(4) != 1 { // 49.9
		t.Errorf("bucket 4 = %d, want 1", h.Bucket(4))
	}
	if h.Overflow() != 2 { // 50, 1000
		t.Errorf("overflow = %d, want 2", h.Overflow())
	}
	if h.NumBuckets() != 5 {
		t.Errorf("NumBuckets = %d", h.NumBuckets())
	}
}

func TestHistogramCountConservation(t *testing.T) {
	check := func(raw []float64) bool {
		h := NewHistogram(7, 4)
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		total := h.Overflow()
		for i := 0; i < h.NumBuckets(); i++ {
			total += h.Bucket(i)
		}
		return total == n && h.N() == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0, 1) did not panic")
		}
	}()
	NewHistogram(0, 1)
}

func TestSeriesAppendAndAt(t *testing.T) {
	var s Series
	s.Append(0, 5)
	s.Append(10, 7)
	s.Append(10, 3) // same-time update allowed
	s.Append(20, 9)
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 5}, {5, 5}, {10, 3}, {15, 3}, {20, 9}, {99, 9},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if s.MaxV() != 9 {
		t.Errorf("MaxV = %v", s.MaxV())
	}
}

func TestSeriesRegressionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("series time regression did not panic")
		}
	}()
	var s Series
	s.Append(5, 1)
	s.Append(4, 1)
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Append(float64(i), float64(i*i))
	}
	d := s.Downsample(10)
	if len(d.Points) != 10 {
		t.Fatalf("downsampled to %d points, want 10", len(d.Points))
	}
	if d.Points[0] != s.Points[0] {
		t.Error("downsample dropped first point")
	}
	if d.Points[len(d.Points)-1] != s.Points[len(s.Points)-1] {
		t.Error("downsample dropped last point")
	}
	for i := 1; i < len(d.Points); i++ {
		if d.Points[i].T < d.Points[i-1].T {
			t.Fatal("downsample broke time ordering")
		}
	}
}

func TestSeriesDownsampleNoOp(t *testing.T) {
	var s Series
	s.Append(1, 1)
	s.Append(2, 2)
	if d := s.Downsample(5); len(d.Points) != 2 {
		t.Fatalf("small series should pass through, got %d points", len(d.Points))
	}
}

func TestSeriesEmptyMax(t *testing.T) {
	var s Series
	if s.MaxV() != 0 {
		t.Fatal("empty series MaxV should be 0")
	}
}
