package sim

// Epoch-based compaction of dead tape prefixes. The tape numbers
// objects by allocation order, so the liveByBirth buckets double as a
// cohort map: a prefix of buckets with no live bytes and no live
// zero-size object (tape.zeroLive) means every object born before
// that clock epoch is dead — exactly the cohorts no boundary query
// (LiveBytesBornAfter takes a birth-time lower bound) can ever count
// again, in the same way age-segregated collectors discard whole dead
// generations. Once every runner has also reclaimed those objects
// from its own heap, the ordinal prefix is unreachable from every
// side and can be retired: its IDs summarized into retired ID spans
// (so duplicate-allocation detection survives) and dropped from the
// index, its whole chunks of births and dead flags set aside for
// reuse, every retained ordinal rebased, and the bucket prefix
// trimmed. Replay memory then tracks the live set plus one birth epoch
// instead of the total number of objects traced.
//
// Compaction is invisible: results, telemetry and error text are
// bit-identical with it on or off (Config.UncompactedTape), which the
// audit oracle re-proves on every run by replaying its reference leg
// uncompacted. It is also deterministic: the cadence gate counts
// events, not batches, so two replays of the same stream — including
// a checkpoint resume fed differently-shaped batches — compact at the
// same points and hold the same tape after the same event count.

import (
	"math"
	"sort"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// Compaction defaults. The cadence keeps the check off the per-event
// path; the retire and trim minimums amortize the O(retained) rebase
// (and, on the index's map arm, map rewrite) so compaction costs O(1)
// per event and the tape never holds more than ~4/3 of its retired
// high-water mark.
const (
	compactCheckEvery     = 4096
	compactMinRetire      = 4096
	compactMinTrimBuckets = 64
)

// tapeCompactionAllowed reports whether the tape shared by these
// runners may compact: disabled by Config.UncompactedTape on any
// runner, and for NoGC/Live runners with the vmem model attached —
// those keep per-ordinal addresses live for every object forever (no
// scavenge ever clears them), so no prefix is ever retirable and the
// periodic scan would be pure waste.
func tapeCompactionAllowed(runners []*Runner) bool {
	for _, r := range runners {
		if r.cfg.UncompactedTape {
			return false
		}
		if !r.isPolicy && r.pages != nil {
			return false
		}
	}
	return true
}

// retainedFloor returns the lowest ordinal some runner can still
// address; every ordinal below it is out of every runner's reach and
// may retire. Dead-but-unreclaimed objects still get read by a later
// scavenge, so they pin the prefix until a collection reclaims them.
// A sweeping runner's floor is its oldest object, objs[0]. A log
// runner's is the smaller of its tenured minimum and the smallest
// ordinal in the death log past its cursor; the second term, minimized
// over runners, is the smallest ordinal past the slowest cursor, so
// one scan of the log covers every log runner. NoGC and Live track no
// per-ordinal state (tapeCompactionAllowed excludes the vmem
// variants), so nothing of theirs pins the prefix. Live objects count
// for nothing here: the caller already stops at the first live birth
// bucket.
func (tp *tape) retainedFloor(runners []*Runner) int {
	floor := tp.ords
	for _, r := range runners {
		switch {
		case r.sweeps && len(r.objs) > 0:
			floor = min(floor, int(r.objs[0]))
		case r.logs():
			floor = min(floor, int(r.tenured.floor()))
		}
	}
	for _, d := range tp.deaths[tp.slowestCursor(runners)-tp.deathBase:] {
		floor = min(floor, int(d.ord))
	}
	return floor
}

// slowestCursor is the death-log position every log runner has
// consumed the log up to.
func (tp *tape) slowestCursor(runners []*Runner) uint64 {
	cursor := tp.deathBase + uint64(len(tp.deaths))
	for _, r := range runners {
		if r.logs() {
			cursor = min(cursor, r.cursor)
		}
	}
	return cursor
}

// trimDeaths drops the death-log prefix every log runner has consumed:
// always when force is set (before a retire), and otherwise once it is
// at least half the log, so the copy-down costs O(1) per entry logged.
// FeedBatch calls it after every horizon, where scavenges move the
// cursors, so the log holds at most about twice the frees since the
// slowest log runner's last scavenge.
func (tp *tape) trimDeaths(runners []*Runner, force bool) {
	if !tp.logDeaths {
		return
	}
	cursor := tp.slowestCursor(runners)
	n := int(cursor - tp.deathBase)
	if n == 0 || (!force && 2*n < len(tp.deaths)) {
		return
	}
	tp.deaths = tp.deaths[:copy(tp.deaths, tp.deaths[n:])]
	tp.deathBase = cursor
}

// rebase shifts this runner's per-ordinal state — its object list or
// tenured set, and its vmem addresses — down by k retired ordinals.
// Every ordinal it holds is >= k (retire respects retainedFloor), so
// the subtraction cannot underflow. Its log cursor counts entries, not
// ordinals, and does not move.
func (r *Runner) rebase(k int) {
	d := int32(k)
	for i := range r.objs {
		r.objs[i] -= d
	}
	r.tenured.rebase(d)
	if r.pages != nil {
		r.addrs = r.addrs[:copy(r.addrs, r.addrs[k:])]
		r.present = r.present[:copy(r.present, r.present[k:])]
	}
}

// maybeCompact is the cadence-gated compaction check: find the
// all-dead bucket prefix, intersect the matching ordinal prefix with
// every runner's floor, retire it if large enough to amortize, and
// trim the dead bucket prefix. Callers gate on checkEvery before
// calling, so the hot path pays one comparison per event.
func (tp *tape) maybeCompact(runners []*Runner) {
	tp.lastCompactCheck = tp.events
	z := tp.deadBuckets()
	if z == 0 {
		return
	}
	// Ordinals born before the first live bucket are all dead. The
	// comparison is on bucket identity — a computed epoch clock could
	// overflow at the top of the clock space.
	limit := tp.bucketBase + uint64(z)
	k := sort.Search(tp.ords, func(i int) bool { return birthBucket(tp.birth(i)) >= limit })
	k = min(k, tp.retainedFloor(runners))
	if k >= tp.minRetire && 4*k >= tp.ords {
		tp.retire(k, runners)
	}
	tp.trimBuckets()
}

// retire drops the first k ordinals (k ≥ 1) from the tape: their IDs
// leave the index into the retired span summary, born0 moves to the
// last retired birth, front advances by k and the chunks it passes
// wholly become spares (so the tape's footprint is its retained
// high-water mark, and a compacting replay allocates no chunk once it
// has reached it), the index is rebased, the consumed death-log
// prefix is dropped and the rest of the log rebased, and every runner
// shifts its own per-ordinal state. On the index's arithmetic arm the
// retired IDs are one span (two if they wrap past 2^64−1) and the
// rebase is the base advancing by k; the map arm deletes the retired
// entries and rewrites every retained one.
func (tp *tape) retire(k int, runners []*Runner) {
	d := int32(k)
	if tp.index == nil {
		lo, hi := tp.idBase, tp.idBase+trace.ObjectID(k-1)
		if hi < lo {
			tp.retired.addRange(lo, math.MaxUint64)
			lo = 0
		}
		tp.retired.addRange(lo, hi)
		tp.idBase += trace.ObjectID(k)
	} else {
		for _, id := range tp.ids[:k] {
			tp.retired.add(id)
			delete(tp.index, id)
		}
		//dtbvet:ignore determinism -- order-insensitive rebase: every value is adjusted independently, no fold over map order
		for id, ord := range tp.index {
			tp.index[id] = ord - d
		}
		tp.ids = tp.ids[:copy(tp.ids, tp.ids[k:])]
	}
	tp.born0 = tp.birth(k - 1)
	// Swapping each retained chunk n places down carries the n dropped
	// ones past the retained, where push finds them as spares.
	p, chunks := tp.front+k, tp.chunks
	n := p / tapeChunkOrds
	for i := range len(chunks) - n {
		chunks[i], chunks[i+n] = chunks[i+n], chunks[i]
	}
	tp.chunks = chunks[:len(chunks)-n]
	tp.spare += n
	tp.front = p % tapeChunkOrds
	tp.ords -= k
	tp.retiredOrds += uint64(k)
	// Entries before the slowest cursor may name retired ordinals; every
	// later one is at or above the retained floor, so at least k.
	tp.trimDeaths(runners, true)
	for i := range tp.deaths {
		tp.deaths[i].ord -= d
	}
	for _, r := range runners {
		r.rebase(k)
	}
}

// deadBuckets returns how many leading birth buckets hold no live
// object: no live bytes and no live zero-size object.
func (tp *tape) deadBuckets() int {
	z := 0
	for z < len(tp.liveByBirth) && tp.liveByBirth[z] == 0 && tp.zeroLive[tp.bucketBase+uint64(z)] == 0 {
		z++
	}
	return z
}

// trimBuckets drops the all-dead bucket prefix and advances
// bucketBase, capped at the clock's own bucket so the next alloc —
// which may land in the current bucket — never indexes below the
// base.
func (tp *tape) trimBuckets() {
	z := tp.deadBuckets()
	if room := birthBucket(tp.clock) - tp.bucketBase; uint64(z) > room {
		z = int(room)
	}
	if z <= 0 || (z < tp.minTrimBuckets && 4*z < len(tp.liveByBirth)) {
		return
	}
	tp.liveByBirth = tp.liveByBirth[:copy(tp.liveByBirth, tp.liveByBirth[z:])]
	tp.bucketBase += uint64(z)
	tp.trimmedBuckets += uint64(z)
}

// idSpan is an inclusive range [Lo, Hi] of retired trace object IDs.
type idSpan struct {
	Lo, Hi trace.ObjectID
}

// idSpans summarizes the retired trace IDs as sorted, disjoint,
// non-adjacent inclusive ranges. Traces from trace.Builder allocate
// IDs monotonically, so the whole retired set collapses to one span
// and membership is O(1); arbitrary valid traces (IDs need only be
// unique) degrade gracefully to O(log spans) lookups and a span per
// gap — an explicit retired set, run-length compressed.
type idSpans []idSpan

// contains reports whether id was retired.
func (s idSpans) contains(id trace.ObjectID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= id })
	return i < len(s) && s[i].Lo <= id
}

func (s *idSpans) add(id trace.ObjectID) { s.addRange(id, id) }

// addRange inserts the IDs lo through hi (lo <= hi), merging with
// adjacent spans where possible. IDs arrive from retired ordinal
// prefixes, so in the common monotone trace every insert extends the
// last span in place.
func (s *idSpans) addRange(lo, hi trace.ObjectID) {
	sp := *s
	i := sort.Search(len(sp), func(i int) bool { return sp[i].Hi >= lo })
	if i < len(sp) && sp[i].Lo <= hi {
		return // overlaps (unreachable from retire: IDs are unique)
	}
	// Adjacency tests cannot wrap: a span below lo has Hi < lo so
	// Hi+1 cannot overflow, and a span above hi has Lo > hi so hi+1
	// cannot either.
	joinsNext := i < len(sp) && sp[i].Lo == hi+1
	joinsPrev := i > 0 && sp[i-1].Hi+1 == lo
	switch {
	case joinsPrev && joinsNext:
		sp[i-1].Hi = sp[i].Hi
		*s = append(sp[:i], sp[i+1:]...)
	case joinsPrev:
		sp[i-1].Hi = hi
	case joinsNext:
		sp[i].Lo = lo
	default:
		sp = append(sp, idSpan{})
		copy(sp[i+1:], sp[i:])
		sp[i] = idSpan{Lo: lo, Hi: hi}
		*s = sp
	}
}

// TapeStats describes the tape's retained footprint, for tests and
// the retained-memory benchmarks. Retained counts shrink when
// compaction retires prefixes; Retired* counts only grow.
type TapeStats struct {
	Events          int    // trace events resolved
	RetainedObjects int    // ordinals currently held on the tape
	RetiredObjects  uint64 // ordinals retired behind the sliding base
	RetiredIDSpans  int    // spans summarizing the retired IDs
	Buckets         int    // birth-epoch buckets currently held
	TrimmedBuckets  uint64 // buckets trimmed off the prefix so far
	LiveBytes       uint64 // oracle live bytes
	DeathLog        int    // death-log entries currently held
}

func (tp *tape) stats() TapeStats {
	return TapeStats{
		Events:          tp.events,
		RetainedObjects: tp.ords,
		RetiredObjects:  tp.retiredOrds,
		RetiredIDSpans:  len(tp.retired),
		Buckets:         len(tp.liveByBirth),
		TrimmedBuckets:  tp.trimmedBuckets,
		LiveBytes:       tp.live,
		DeathLog:        len(tp.deaths),
	}
}

// TapeStats reports the footprint of the tape this runner reads: its
// fleet's, shared with any sibling runners.
func (r *Runner) TapeStats() TapeStats { return r.tape.stats() }

// TapeStats reports the footprint of the fleet's shared tape.
func (f *Fleet) TapeStats() TapeStats { return f.tape.stats() }
