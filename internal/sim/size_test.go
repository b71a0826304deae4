package sim

import (
	"math"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// TestTapeSizesFromBirths checks the tape's size derivation against
// the sizes the trace carried: every resolved free reports its alloc's
// size, and after every compaction check each retained ordinal's size
// is its alloc's. The audit oracle cannot see a wrong derivation, since
// its reference leg reads the same tape. The tape compacts under the
// smallest tunables, so ordinal 0 moves many times, on both index arms,
// from a zero clock and from a clock whose last alloc ends at the top
// of the clock space, and the front crosses more than three chunks.
// Sizes include zero, which gives equal births.
func TestTapeSizesFromBirths(t *testing.T) {
	const objects = 3*tapeChunkOrds + 900
	g := lcg(11)
	sizes := make([]uint64, objects)
	var total uint64
	for i := range sizes {
		switch g.next() % 16 {
		case 0:
			sizes[i] = 0
		case 1:
			sizes[i] = 1<<birthBucketShift + g.next()%(1<<birthBucketShift)
		default:
			sizes[i] = 1 + g.next()%3000
		}
		total += sizes[i]
	}
	for _, tc := range []struct {
		name   string
		start  core.Time
		idStep trace.ObjectID // 1 keeps the arithmetic index arm, 2 moves to the map
	}{
		{"zero clock", 0, 1},
		{"zero clock, map index", 0, 2},
		{"top of the clock space", core.TimeAt(math.MaxUint64 - total), 1},
		{"top of the clock space, map index", core.TimeAt(math.MaxUint64 - total), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := newTape()
			aggressive(tp)
			tp.clock, tp.born0 = tc.start, tc.start
			tp.bucketBase = birthBucket(tc.start)
			size := make(map[trace.ObjectID]uint64)
			var live []trace.ObjectID // oldest first
			var out resolved
			instr := uint64(0)
			retires := 0
			feed := func(e trace.Event) {
				t.Helper()
				if err := tp.resolve(e, &out); err != nil {
					t.Fatalf("%v: %v", e, err)
				}
				if e.Kind == trace.KindFree && out.size != size[e.ID] {
					t.Fatalf("free of object %d resolved with size %d, its alloc carried %d", e.ID, out.size, size[e.ID])
				}
				before := tp.retiredOrds
				tp.maybeCompact(nil)
				if tp.retiredOrds != before {
					retires++
				}
				for ord := range tp.ords {
					id := tp.idBase + trace.ObjectID(ord)
					if tp.index != nil {
						id = tp.ids[ord]
					}
					if got := tp.size(ord); got != size[id] {
						t.Fatalf("after %d events: ordinal %d (object %d) has size %d, its alloc carried %d", tp.events, ord, id, got, size[id])
					}
				}
			}
			for i, sz := range sizes {
				id := trace.ObjectID(1 + i*int(tc.idStep))
				size[id] = sz
				instr++
				feed(trace.Alloc(id, sz, instr))
				live = append(live, id)
				// Free one of the oldest few live objects, so dead
				// prefixes form and retire.
				if len(live) > 24 {
					k := int(g.next() % 4)
					instr++
					feed(trace.Free(live[k], instr))
					live = append(live[:k], live[k+1:]...)
				}
			}
			for len(live) > 0 {
				instr++
				feed(trace.Free(live[0], instr))
				live = live[1:]
			}
			if retires < 10 {
				t.Fatalf("only %d retires over the trace", retires)
			}
			if tp.retiredOrds < 3*tapeChunkOrds {
				t.Fatalf("only %d ordinals retired: the front crossed fewer than three chunks", tp.retiredOrds)
			}
			if tc.start != 0 && tp.clock.Bytes() != math.MaxUint64 {
				t.Fatalf("clock ended at %d, want the top of the clock space", tp.clock.Bytes())
			}
			if tp.live != 0 {
				t.Fatalf("%d live bytes left after freeing everything", tp.live)
			}
		})
	}
}
