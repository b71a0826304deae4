package sim

import (
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// isDead reports whether retained ordinal ord was freed.
func (tp *tape) isDead(ord int) bool {
	c, s := tp.slot(ord)
	return c.dead[s]
}

// chunkModel drives a tape on the arithmetic index arm beside a plain
// model of its retained ordinals, so tests can put allocs, frees and
// retires on chunk boundaries and compare every derived fact.
type chunkModel struct {
	t      *testing.T
	tp     *tape
	g      lcg
	births []core.Time // per retained ordinal, like the model's sizes and dead flags
	sizes  []uint64
	dead   []bool
	nextID trace.ObjectID
	instr  uint64
	out    resolved
}

func newChunkModel(t *testing.T) *chunkModel {
	return &chunkModel{t: t, tp: newTape(), g: lcg(5), nextID: 1}
}

// alloc allocates n objects of 1 to 40 bytes, so one birth bucket
// spans several chunks and the bucket scans cross chunk boundaries.
func (m *chunkModel) alloc(n int) {
	m.t.Helper()
	for range n {
		size := 1 + m.g.next()%40
		m.instr++
		if err := m.tp.resolve(trace.Alloc(m.nextID, size, m.instr), &m.out); err != nil {
			m.t.Fatal(err)
		}
		m.nextID++
		m.births = append(m.births, m.tp.clock)
		m.sizes = append(m.sizes, size)
		m.dead = append(m.dead, false)
	}
}

// free frees retained ordinal ord and checks the size resolve derives.
func (m *chunkModel) free(ord int) {
	m.t.Helper()
	m.instr++
	if err := m.tp.resolve(trace.Free(m.tp.idBase+trace.ObjectID(ord), m.instr), &m.out); err != nil {
		m.t.Fatal(err)
	}
	if m.out.size != m.sizes[ord] {
		m.t.Fatalf("free of ordinal %d (slot %d) resolved %d bytes, its alloc carried %d", ord, (m.tp.front+ord)%tapeChunkOrds, m.out.size, m.sizes[ord])
	}
	m.dead[ord] = true
}

// retire frees whatever of the first k ordinals is still live, then
// retires them.
func (m *chunkModel) retire(k int) {
	m.t.Helper()
	for ord := range k {
		if !m.dead[ord] {
			m.free(ord)
		}
	}
	m.tp.retire(k, nil)
	m.births, m.sizes, m.dead = m.births[k:], m.sizes[k:], m.dead[k:]
}

// chunks counts the distinct chunks the tape holds, in use or spare.
func (m *chunkModel) chunks() int {
	return len(m.tp.chunks) + m.tp.spare
}

// check compares every retained ordinal's birth, size and dead flag
// with the model, and the boundary query, bucketed and naive, with the
// model's sum at the first and last birth of every chunk.
func (m *chunkModel) check() {
	m.t.Helper()
	tp := m.tp
	if tp.ords != len(m.sizes) {
		m.t.Fatalf("tape holds %d ordinals, the model %d", tp.ords, len(m.sizes))
	}
	for ord := range tp.ords {
		if tp.birth(ord) != m.births[ord] || tp.size(ord) != m.sizes[ord] || tp.isDead(ord) != m.dead[ord] {
			m.t.Fatalf("ordinal %d (front %d): birth %d size %d dead %v, want %d %d %v", ord, tp.front,
				tp.birth(ord).Bytes(), tp.size(ord), tp.isDead(ord), m.births[ord].Bytes(), m.sizes[ord], m.dead[ord])
		}
	}
	var edges []int
	for ord := range tp.ords {
		if s := (tp.front + ord) % tapeChunkOrds; ord == 0 || ord == tp.ords-1 || s == 0 || s == tapeChunkOrds-1 {
			edges = append(edges, ord)
		}
	}
	for _, ord := range edges {
		for _, q := range []core.Time{m.births[ord], m.births[ord] - 1} {
			var want uint64
			for i, b := range m.births {
				if b > q && !m.dead[i] {
					want += m.sizes[i]
				}
			}
			if got, naive := tp.liveBytesBornAfter(q), tp.liveBytesBornAfterNaive(q); got != want || naive != want {
				m.t.Fatalf("query at ordinal %d's birth %d: buckets %d, naive %d, model %d", ord, q.Bytes(), got, naive, want)
			}
		}
	}
}

// TestTapeChunkBoundaries puts frees and retires on the tape's chunk
// boundaries: frees of a chunk's first ordinal, whose size comes from
// the previous chunk's last birth; retires that end mid-chunk, exactly
// on a boundary and across several chunks; a free of ordinal 0 after
// a retire left the front mid-chunk, whose size comes from born0; and
// allocs that reuse the chunks retires dropped instead of allocating.
func TestTapeChunkBoundaries(t *testing.T) {
	const n = tapeChunkOrds
	m := newChunkModel(t)
	m.alloc(5*n + 300)
	m.check()
	for _, ord := range []int{n, 4 * n, n - 1, 2*n + 1} {
		m.free(ord)
	}
	m.check()
	if got := m.chunks(); got != 6 {
		t.Fatalf("%d ordinals in %d chunks, want 6", 5*n+300, got)
	}

	m.retire(700) // ends mid-chunk
	if m.tp.front != 700 || m.tp.spare != 0 {
		t.Fatalf("after retiring 700: front %d, %d spares; want 700, 0", m.tp.front, m.tp.spare)
	}
	m.check()
	m.free(0) // its size comes from born0, one slot below the front
	m.free(3*n - 700)
	m.check()

	m.retire(2*n - 700) // exactly on a boundary
	if m.tp.front != 0 || m.tp.spare != 2 {
		t.Fatalf("after retiring to a boundary: front %d, %d spares; want 0, 2", m.tp.front, m.tp.spare)
	}
	m.check()
	m.free(0) // ordinal 0 at slot 0: its size comes from born0
	m.check()

	m.retire(2*n + 5) // across several chunks
	if m.tp.front != 5 || m.tp.spare != 4 {
		t.Fatalf("after retiring across chunks: front %d, %d spares; want 5, 4", m.tp.front, m.tp.spare)
	}
	m.check()
	m.free(0)
	m.free(n - 5) // the next chunk's first ordinal
	m.check()

	// Allocs take the four spares before any new chunk.
	m.alloc(4*n + 10)
	if got := m.chunks(); got != 6 || m.tp.spare != 0 {
		t.Fatalf("after refilling: %d chunks with %d spare, want 6 with none", got, m.tp.spare)
	}
	m.check()
	m.free(m.tp.ords - 1)
	for ord := range m.tp.ords {
		if (m.tp.front+ord)%n == 0 && !m.dead[ord] {
			m.free(ord)
		}
	}
	m.check()

	m.retire(m.tp.ords) // everything
	m.check()
	m.alloc(3)
	m.free(0)
	m.check()
}

// TestTapeChunksNeverDying pins the tape's growth: objects that never
// die allocate one chunk per tapeChunkOrds of them, and nothing else.
// The chunk list and the one birth bucket are presized so the chunks
// are all that differs between counts.
func TestTapeChunksNeverDying(t *testing.T) {
	allocs := func(n int) float64 {
		var out resolved
		return testing.AllocsPerRun(3, func() {
			tp := newTape()
			tp.chunks = make([]*tapeChunk, 0, 8)
			tp.liveByBirth = make([]uint64, 1)
			for i := range n {
				if err := tp.resolve(trace.Alloc(trace.ObjectID(i+1), 1, uint64(i)), &out); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	base := allocs(1)
	for _, n := range []int{tapeChunkOrds - 1, tapeChunkOrds, tapeChunkOrds + 1, 3*tapeChunkOrds + 5} {
		want := (n + tapeChunkOrds - 1) / tapeChunkOrds
		if got := allocs(n) - base; got != float64(want-1) {
			t.Errorf("%d objects: %v allocations beyond one object's, want %d (one per chunk after the first)", n, got, want-1)
		}
	}
}

// TestTapeChunksReusedAfterRetire: a compacting churn tape allocates
// no chunk after its first retire, because every alloc past the
// retained chunks takes one that a retire dropped.
func TestTapeChunksReusedAfterRetire(t *testing.T) {
	r, err := NewRunner(Config{Mode: ModeNoGC})
	if err != nil {
		t.Fatal(err)
	}
	events := churnTrace(60000, 64, 0, 0)
	fed := 0
	for r.TapeStats().RetiredObjects == 0 {
		if err := r.solo.FeedBatch(events[fed : fed+512]); err != nil {
			t.Fatal(err)
		}
		fed += 512
	}
	const seg = 4096
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.solo.FeedBatch(events[fed : fed+seg]); err != nil {
			t.Fatal(err)
		}
		fed += seg
	})
	if allocs != 0 {
		t.Errorf("compacting churn tape allocates %v times per %d events after its first retire, want 0", allocs, seg)
	}
	if st := r.TapeStats(); st.RetiredObjects < 4*tapeChunkOrds {
		t.Fatalf("only %d ordinals retired: the segments did not cross retires", st.RetiredObjects)
	}
}
