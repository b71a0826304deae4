package trace

import "sort"

// LifetimeStats characterizes a trace's object demographics on the
// allocation clock — the quantities the paper's lifetime arguments
// (and this repository's workload calibration) are stated in.
type LifetimeStats struct {
	TotalObjects int
	TotalBytes   uint64

	// FreedBytes are bytes whose death was observed; the rest were
	// still live when the trace ended ("permanent" for modelling).
	FreedBytes     uint64
	PermanentBytes uint64

	MeanObjectBytes float64

	// lifetimes holds (lifetime-in-allocated-bytes, objectBytes) for
	// every freed object, sorted by lifetime.
	lifetimes []lifeSample
}

type lifeSample struct {
	life  uint64 // bytes allocated between birth and death
	bytes uint64 // the object's own size
}

// PermanentFraction returns the byte fraction never observed to die.
func (ls *LifetimeStats) PermanentFraction() float64 {
	if ls.TotalBytes == 0 {
		return 0
	}
	return float64(ls.PermanentBytes) / float64(ls.TotalBytes)
}

// SurvivalAt returns the fraction of freed bytes that lived at least
// `age` bytes of subsequent allocation — the byte-weighted survival
// function S(age) over observed deaths.
func (ls *LifetimeStats) SurvivalAt(age uint64) float64 {
	if ls.FreedBytes == 0 {
		return 0
	}
	// lifetimes sorted ascending: find the first sample with life >= age.
	i := sort.Search(len(ls.lifetimes), func(i int) bool { return ls.lifetimes[i].life >= age })
	var surviving uint64
	for ; i < len(ls.lifetimes); i++ {
		surviving += ls.lifetimes[i].bytes
	}
	return float64(surviving) / float64(ls.FreedBytes)
}

// LifetimeQuantile returns the byte-weighted q-quantile (0..1) of the
// observed lifetimes, 0 if nothing died.
func (ls *LifetimeStats) LifetimeQuantile(q float64) uint64 {
	if len(ls.lifetimes) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(ls.FreedBytes))
	var acc uint64
	for _, s := range ls.lifetimes {
		acc += s.bytes
		if acc >= target {
			return s.life
		}
	}
	return ls.lifetimes[len(ls.lifetimes)-1].life
}

// MeanLifetimeOfRange returns the byte-weighted mean lifetime of the
// freed objects whose lifetimes fall within [lo, hi) quantiles — used
// to fit mixture components.
func (ls *LifetimeStats) MeanLifetimeOfRange(loQ, hiQ float64) float64 {
	if len(ls.lifetimes) == 0 {
		return 0
	}
	loAge := ls.LifetimeQuantile(loQ)
	hiAge := ls.LifetimeQuantile(hiQ)
	inclusive := hiQ >= 1 || loAge == hiAge // the top quantile owns the maximum
	var sum, weight uint64
	for _, s := range ls.lifetimes {
		if s.life >= loAge && (s.life < hiAge || inclusive) {
			sum += s.life * s.bytes
			weight += s.bytes
		}
	}
	if weight == 0 {
		return float64(hiAge)
	}
	return float64(sum) / float64(weight)
}

// FreedFraction returns the byte fraction observed to die.
func (ls *LifetimeStats) FreedFraction() float64 {
	if ls.TotalBytes == 0 {
		return 0
	}
	return float64(ls.FreedBytes) / float64(ls.TotalBytes)
}

// MeasureLifetimes computes lifetime statistics for a trace, which must
// pass Validate: a trace that does not fails with Validate's error.
// Ages are measured on the allocation clock: an object's lifetime is
// the number of bytes allocated between its birth and its free event,
// the paper's notion of object age.
func MeasureLifetimes(events []Event) (*LifetimeStats, error) {
	if err := Validate(events); err != nil {
		return nil, err
	}
	ls := &LifetimeStats{}
	type birthRec struct {
		clock uint64
		size  uint64
	}
	births := make(map[ObjectID]birthRec)
	var clock uint64
	for _, e := range events {
		switch e.Kind {
		case KindAlloc:
			clock += e.Size
			births[e.ID] = birthRec{clock: clock, size: e.Size}
			ls.TotalObjects++
			ls.TotalBytes += e.Size
		case KindFree:
			b := births[e.ID]
			delete(births, e.ID)
			ls.FreedBytes += b.size
			ls.lifetimes = append(ls.lifetimes, lifeSample{life: clock - b.clock, bytes: b.size})
		case KindPtrWrite, KindMark:
			// Pointer stores and annotations do not affect lifetimes.
		}
	}
	for _, b := range births { //dtbvet:ignore determinism -- order-insensitive sum of surviving bytes
		ls.PermanentBytes += b.size
	}
	if ls.TotalObjects > 0 {
		ls.MeanObjectBytes = float64(ls.TotalBytes) / float64(ls.TotalObjects)
	}
	sort.Slice(ls.lifetimes, func(a, b int) bool { return ls.lifetimes[a].life < ls.lifetimes[b].life })
	return ls, nil
}
