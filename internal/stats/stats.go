// Package stats provides the summary statistics used throughout the
// dynamic-threatening-boundary evaluation: means, maxima, percentiles,
// time-weighted averages over step functions, and time series.
//
// The paper reports mean and maximum memory use (Table 2), median and
// 90th-percentile pause times (Table 3), and total traced bytes with
// CPU overhead percentages (Table 4); every one of those aggregations
// lives here so the simulator and the benchmark harness share a single
// definition.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values
// using linear interpolation between closest ranks, the method most
// statistics packages default to. It returns 0 for an empty slice and
// panics if p is outside [0, 100]. The input is not modified.
func Percentile(values []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
	}
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is like Percentile but requires values to be sorted
// ascending and does not copy.
func PercentileSorted(sorted []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
	}
	if len(sorted) == 0 {
		return 0
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(values []float64) float64 { return Percentile(values, 50) }

// Weighted accumulates the time-weighted mean and the maximum of a
// right-continuous step function: the function holds value v from the
// time of Observe(t, v) until the next Observe. It is how "mean memory
// in use" is defined for Table 2 — memory between events is constant,
// so the mean must weight each level by how long it was held.
//
// The zero value is ready for use; the first Observe establishes the
// origin.
type Weighted struct {
	started   bool
	lastT     float64
	lastV     float64
	weightSum float64
	valueSum  float64
	max       float64
}

// Observe records that the function takes value v at time t. Times must
// be non-decreasing; Observe panics on regression.
func (w *Weighted) Observe(t, v float64) {
	if w.started {
		if t < w.lastT {
			panic(fmt.Sprintf("stats: Weighted.Observe time regressed %v -> %v", w.lastT, t))
		}
		dt := t - w.lastT
		w.weightSum += dt
		w.valueSum += dt * w.lastV
	} else {
		w.started = true
		w.max = v
	}
	if v > w.max {
		w.max = v
	}
	w.lastT, w.lastV = t, v
}

// Finish extends the last observed value to time t (the end of the
// program) so that it contributes its holding interval to the mean.
func (w *Weighted) Finish(t float64) {
	if w.started {
		w.Observe(t, w.lastV)
	}
}

// maxExact is 2^53: every integer in [0, maxExact] is a float64, so
// float sums, differences and products of such integers whose exact
// result stays in that range round nowhere.
const maxExact = 1 << 53

// ObserveRun applies a run of Observe calls in O(1) from exact integer
// sums. The run starts from the statistic's last point (t0, v0); its
// times and values are nondecreasing integers, it ends at (t, v), and
// sumHi·2^64 + sumLo is its value integral Σ (t_i − t_{i−1})·v_{i−1},
// the first term measured from (t0, v0). A run of no calls is
// (t0, v0, t0, v0, 0, 0).
//
// It applies the sums only where the sequential float path would round
// nowhere, so the result is bit-identical to observing the run point
// by point: the statistic has started, its last point is (t0, v0), and
// t, v and the new weight and value sums are integers at most 2^53.
// Every time, value, product and partial sum along the sequential path
// is a nonnegative integer bounded by one of those, so it is exact too.
// Otherwise ObserveRun changes nothing and returns false, and the
// caller observes the run one point at a time.
//
//dtbvet:hotpath one call per run of a replay, for each summarizing collector
func (w *Weighted) ObserveRun(t0, v0, t, v, sumHi, sumLo uint64) bool {
	if !w.started || t < t0 || v < v0 || t > maxExact || v > maxExact || sumHi != 0 || sumLo > maxExact {
		return false
	}
	if math.Float64bits(w.lastT) != math.Float64bits(float64(t0)) || math.Float64bits(w.lastV) != math.Float64bits(float64(v0)) {
		return false
	}
	ws, okW := exactUint(w.weightSum)
	vs, okV := exactUint(w.valueSum)
	if !okW || !okV || ws+(t-t0) > maxExact || vs+sumLo > maxExact {
		return false
	}
	w.weightSum = float64(ws + (t - t0))
	w.valueSum = float64(vs + sumLo)
	w.lastT, w.lastV = float64(t), float64(v)
	if w.lastV > w.max {
		w.max = w.lastV
	}
	return true
}

// exactUint returns x as an integer if it is one in [0, 2^53].
func exactUint(x float64) (uint64, bool) {
	if !(x >= 0 && x <= maxExact) {
		return 0, false
	}
	u := uint64(x)
	return u, math.Float64bits(float64(u)) == math.Float64bits(x)
}

// Mean returns the time-weighted mean, or 0 if no interval has elapsed.
func (w *Weighted) Mean() float64 {
	if w.weightSum == 0 { //dtbvet:ignore floatexact -- exact-zero guard before dividing by the weight sum
		return 0
	}
	return w.valueSum / w.weightSum
}

// Max returns the largest observed value.
func (w *Weighted) Max() float64 { return w.max }

// Point is one sample of a time series.
type Point struct {
	T float64 // time coordinate (e.g. bytes allocated or seconds)
	V float64 // value (e.g. bytes in use)
}

// Series is an append-only time series, used for the Figure 2 memory
// curves. Points must be appended in non-decreasing time order.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point, enforcing the time ordering invariant.
func (s *Series) Append(t, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("stats: Series %q time regressed %v -> %v", s.Name, s.Points[n-1].T, t))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// At returns the series value at time t under step-function semantics
// (the most recent point at or before t). It returns 0 before the
// first point.
func (s *Series) At(t float64) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Downsample returns a copy of the series keeping at most n points,
// chosen uniformly by index, always retaining the first and last. It
// returns the series unchanged when it already fits.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 {
		panic("stats: Downsample requires n > 0")
	}
	if len(s.Points) <= n {
		return s
	}
	out := &Series{Name: s.Name, Points: make([]Point, 0, n)}
	if n == 1 {
		out.Points = append(out.Points, s.Points[len(s.Points)-1])
		return out
	}
	step := float64(len(s.Points)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out.Points = append(out.Points, s.Points[int(float64(i)*step+0.5)])
	}
	return out
}
