package sim

import (
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// lcg is a tiny deterministic generator for exercising the tape with
// varied-but-reproducible sizes and death patterns.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g) >> 33
}

// buildBucketTestTape drives a tape through an alloc/free mix that
// crosses many birth buckets and leaves a mixture of live and dead
// objects — the states LiveBytesBornAfter must account for. (Runner
// scavenges are irrelevant to the query: reclaimed objects are dead,
// and only live bytes count, which is what lets every runner on a
// shared tape use the same accounting.) It returns the tape and the
// clock readings at which objects were born (the interesting query
// points).
func buildBucketTestTape(t testing.TB, objects int) (*tape, []core.Time) {
	t.Helper()
	tp := newTape()
	g := lcg(12345)
	births := make([]core.Time, 0, objects)
	var out resolved
	freed := 0
	for i := 0; i < objects; i++ {
		// Sizes up to ~20 KB guarantee births land in many distinct
		// 64 KB buckets and frequently straddle bucket boundaries.
		size := 16 + g.next()%20000
		if err := tp.resolve(trace.Alloc(trace.ObjectID(i+1), size, uint64(i)), &out); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		births = append(births, tp.clock)
		// Kill roughly half of the recent past.
		if i > 0 && g.next()%2 == 0 {
			victim := trace.ObjectID(1 + g.next()%uint64(i))
			if ord, ok := tp.lookup(victim); ok && !tp.dead[ord] {
				if err := tp.resolve(trace.Free(victim, uint64(i)), &out); err != nil {
					t.Fatalf("free %d: %v", victim, err)
				}
				freed++
			}
		}
	}
	if 4*freed < objects {
		t.Fatalf("freed %d of %d objects, want at least a quarter", freed, objects)
	}
	return tp, births
}

// TestLiveBytesBornAfterMatchesNaive pins the birth-epoch bucket
// accounting to the naive tail scan it replaced, across query points
// on, between, and beyond object births and bucket boundaries.
func TestLiveBytesBornAfterMatchesNaive(t *testing.T) {
	tp, births := buildBucketTestTape(t, 4000)
	queries := []core.Time{0, 1, core.TimeAt(1 << birthBucketShift)}
	for i := 0; i < len(births); i += 7 {
		queries = append(queries, births[i], births[i].Add(1))
	}
	last := births[len(births)-1]
	queries = append(queries, last, last.Add(1), last.Add(1<<birthBucketShift))
	for _, q := range queries {
		got := tp.liveBytesBornAfter(q)
		want := tp.liveBytesBornAfterNaive(q)
		if got != want {
			t.Fatalf("liveBytesBornAfter(%d) = %d, naive scan says %d", q.Bytes(), got, want)
		}
	}
}

// TestLiveBytesBornAfterTracksMutation interleaves queries with
// further mutation: the incremental bucket sums must stay consistent
// as objects are born and die.
func TestLiveBytesBornAfterTracksMutation(t *testing.T) {
	tp := newTape()
	g := lcg(99)
	var births []core.Time
	var out resolved
	freed := 0
	const objects = 2000
	for i := 0; i < objects; i++ {
		size := 8 + g.next()%5000
		if err := tp.resolve(trace.Alloc(trace.ObjectID(i+1), size, uint64(i)), &out); err != nil {
			t.Fatalf("alloc: %v", err)
		}
		births = append(births, tp.clock)
		if i%3 == 2 {
			victim := trace.ObjectID(1 + g.next()%uint64(i))
			if ord, ok := tp.lookup(victim); ok && !tp.dead[ord] {
				if err := tp.resolve(trace.Free(victim, uint64(i)), &out); err != nil {
					t.Fatalf("free: %v", err)
				}
				freed++
			}
		}
		if i%100 == 50 {
			q := births[uint64(len(births))/2]
			if got, want := tp.liveBytesBornAfter(q), tp.liveBytesBornAfterNaive(q); got != want {
				t.Fatalf("step %d: liveBytesBornAfter(%d) = %d, naive says %d", i, q.Bytes(), got, want)
			}
		}
	}
	if 4*freed < objects {
		t.Fatalf("freed %d of %d objects, want at least a quarter", freed, objects)
	}
}

// BenchmarkLiveBytesBornAfter measures the boundary query both ways on
// a tape large enough that the tail scan's O(objects) cost shows: the
// bucket accounting must turn the policy-decision hot path into a
// bucket-suffix sum.
func BenchmarkLiveBytesBornAfter(b *testing.B) {
	tp, births := buildBucketTestTape(b, 50000)
	q := births[len(births)/10] // old boundary → long suffix, worst case for the scan
	b.Run("buckets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU64 = tp.liveBytesBornAfter(q)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU64 = tp.liveBytesBornAfterNaive(q)
		}
	})
}

var sinkU64 uint64
