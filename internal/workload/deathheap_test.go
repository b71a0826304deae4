package workload

import (
	"container/heap"
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// refDeathHeap is the container/heap adapter GenerateTo used before
// deathHeap got its typed push and pop: the reference the typed heap
// must match pop for pop.
type refDeathHeap []death

func (h refDeathHeap) Len() int           { return len(h) }
func (h refDeathHeap) Less(i, j int) bool { return h[i].clock < h[j].clock }
func (h refDeathHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refDeathHeap) Push(x any)        { *h = append(*h, x.(death)) }
func (h *refDeathHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestDeathHeapMatchesContainerHeap feeds seeded push/pop schedules
// whose clocks collide constantly to the typed heap and to
// container/heap, and requires the same pop sequence — ids included,
// so the order among equal clocks is pinned too. That order decides
// which of several same-clock frees a generated trace emits first.
func TestDeathHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		r := xrand.New(seed)
		// Few distinct clocks: most pushes tie with something queued.
		clocks := uint64(1 + r.Intn(8))
		var got deathHeap
		var want refDeathHeap
		id := trace.ObjectID(1)
		pops := 0
		for step := 0; step < 4000; step++ {
			if len(got) > 0 && r.Intn(5) < 2 {
				g, w := got.pop(), heap.Pop(&want).(death)
				if g != w {
					t.Fatalf("seed %d, pop %d: typed heap popped %+v, container/heap %+v", seed, pops, g, w)
				}
				pops++
				continue
			}
			d := death{clock: r.Uint64() % clocks, id: id}
			id++
			got.push(d)
			heap.Push(&want, d)
		}
		for len(got) > 0 {
			g, w := got.pop(), heap.Pop(&want).(death)
			if g != w {
				t.Fatalf("seed %d, drain pop %d: typed heap popped %+v, container/heap %+v", seed, pops, g, w)
			}
			pops++
		}
		if len(want) != 0 {
			t.Fatalf("seed %d: container/heap still holds %d deaths", seed, len(want))
		}
	}
}

// TestGenerateToAllocations pins the generator's allocation rate: with
// the typed death heap, streaming a trace allocates only for slice
// growth, far below one allocation per event.
func TestGenerateToAllocations(t *testing.T) {
	p := Ghost1().Scale(0.01)
	events := 0
	allocs := testing.AllocsPerRun(3, func() {
		events = 0
		if err := p.GenerateTo(func(trace.Event) error { events++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := allocs / float64(events); perEvent > 0.01 {
		t.Errorf("GenerateTo allocates %.4f times per event (%v allocs over %d events), want at most 0.01", perEvent, allocs, events)
	}
}
