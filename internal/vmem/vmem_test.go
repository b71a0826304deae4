package vmem

import (
	"slices"
	"testing"

	"github.com/dtbgc/dtbgc/internal/xrand"
)

func TestColdFaults(t *testing.T) {
	m := New(4096, 8)
	m.Touch(0, 4096)
	if m.Faults() != 1 || m.Accesses() != 1 {
		t.Fatalf("faults=%d accesses=%d", m.Faults(), m.Accesses())
	}
	// Re-touch: hit, no new fault.
	m.Touch(100, 8)
	if m.Faults() != 1 || m.Accesses() != 2 {
		t.Fatalf("re-touch faulted: %d", m.Faults())
	}
}

func TestRangeSpansPages(t *testing.T) {
	m := New(4096, 8)
	m.Touch(4090, 10) // crosses a page boundary
	if m.Faults() != 2 {
		t.Fatalf("boundary-crossing touch faulted %d pages, want 2", m.Faults())
	}
	m.Touch(0, 3*4096) // pages 0,1,2; 0 and 1 already resident
	if m.Faults() != 3 {
		t.Fatalf("faults=%d, want 3", m.Faults())
	}
}

func TestZeroSizeTouch(t *testing.T) {
	m := New(4096, 4)
	m.Touch(12345, 0)
	if m.Accesses() != 0 {
		t.Fatal("zero-size touch accessed pages")
	}
}

func TestLRUEviction(t *testing.T) {
	m := New(100, 2)
	m.Touch(0, 1)   // page 0
	m.Touch(100, 1) // page 1
	m.Touch(0, 1)   // hit page 0, now MRU
	m.Touch(200, 1) // page 2 evicts page 1 (LRU)
	if m.Faults() != 3 {
		t.Fatalf("faults=%d", m.Faults())
	}
	m.Touch(0, 1) // page 0 still resident
	if m.Faults() != 3 {
		t.Fatal("page 0 was wrongly evicted")
	}
	m.Touch(100, 1) // page 1 was evicted: fault
	if m.Faults() != 4 {
		t.Fatal("page 1 should have been evicted")
	}
	if m.Resident() != 2 {
		t.Fatalf("resident=%d", m.Resident())
	}
}

func TestSequentialScanOverCapacityAlwaysFaults(t *testing.T) {
	m := New(4096, 4)
	for pass := 0; pass < 3; pass++ {
		for p := uint64(0); p < 8; p++ {
			m.Touch(p*4096, 1)
		}
	}
	// Classic LRU worst case: every access of a cyclic over-capacity
	// scan misses.
	if m.Faults() != m.Accesses() {
		t.Fatalf("faults=%d accesses=%d; cyclic scan should always miss", m.Faults(), m.Accesses())
	}
}

func TestWorkingSetWithinCapacityStopsFaulting(t *testing.T) {
	m := New(4096, 16)
	r := xrand.New(3)
	for i := 0; i < 1000; i++ {
		m.Touch(uint64(r.Intn(8))*4096, 1)
	}
	if m.Faults() != 8 {
		t.Fatalf("faults=%d, want 8 cold faults only", m.Faults())
	}
	if rate := float64(m.Faults()) / float64(m.Accesses()); rate >= 0.01 {
		t.Fatalf("fault rate %v too high", rate)
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4) },
		func() { New(4096, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad New accepted")
				}
			}()
			f()
		}()
	}
}

// TestHugeTouchBoundedByFrames touches one 60 GiB object at three
// successive addresses, as the copies of a scavenge do, with 16
// frames of 4 KB. Every page faults, the last 16 pages of the last
// copy stay resident in order, and the work follows the resident
// set: the set is full after the first touch, so a later touch of
// 15.7M pages reuses evicted nodes and allocates nothing.
func TestHugeTouchBoundedByFrames(t *testing.T) {
	const pageBytes, frames, size = 4096, 16, 60 << 30
	const pages = size / pageBytes
	m := New(pageBytes, frames)
	m.Touch(0, size)
	var addr uint64 = size
	allocs := testing.AllocsPerRun(1, func() {
		m.Touch(addr, size)
		addr += size
	})
	if allocs != 0 {
		t.Fatalf("one %d-page touch on a full resident set allocated %v times, want 0", pages, allocs)
	}
	// Three touches: the first, AllocsPerRun's warm-up and its run.
	if m.Faults() != 3*pages || m.Accesses() != 3*pages {
		t.Fatalf("faults=%d accesses=%d, want %d each", m.Faults(), m.Accesses(), 3*pages)
	}
	want := make([]uint64, frames) // the last 16 pages, most recent first
	for i := range want {
		want[i] = addr/pageBytes - 1 - uint64(i)
	}
	if got := residentOrder(m); !slices.Equal(got, want) {
		t.Fatalf("resident pages %v, want %v", got, want)
	}
	m.Touch(addr-1, 1)
	if m.Faults() != 3*pages || m.Accesses() != 3*pages+1 {
		t.Fatal("the last page touched is not resident")
	}
}

// residentOrder lists the model's resident pages, most recent first.
func residentOrder(m *Model) []uint64 {
	var out []uint64
	for n := m.head; n != nil; n = n.next {
		out = append(out, n.page)
	}
	return out
}

// refModel is the per-page LRU reference FuzzPageModel checks the
// model against: every page of a range is one access, and the
// resident pages are kept most recent first.
type refModel struct {
	pageBytes        uint64
	frames           int
	resident         []uint64
	faults, accesses uint64
}

func (r *refModel) touch(addr, size uint64) {
	if size == 0 {
		return
	}
	for p := addr / r.pageBytes; p <= (addr+size-1)/r.pageBytes; p++ {
		r.accesses++
		if i := slices.Index(r.resident, p); i >= 0 {
			r.resident = slices.Delete(r.resident, i, i+1)
		} else {
			r.faults++
			if len(r.resident) == r.frames {
				r.resident = r.resident[:r.frames-1]
			}
		}
		r.resident = slices.Insert(r.resident, 0, p)
	}
}

// FuzzPageModel checks that any page size, frame count and sequence
// of touches gives the per-page reference's faults, accesses and
// resident pages in LRU order, after every touch. Each touch is four
// bytes: a page and an offset into it, then a size in quarter pages
// and bytes, so ranges run from nothing to about 64 pages and cross
// twice the frame count on both sides.
func FuzzPageModel(f *testing.F) {
	f.Add(uint16(4096), uint8(16), []byte{0, 0, 255, 0, 1, 2, 3, 4})
	f.Add(uint16(1), uint8(1), []byte{3, 0, 9, 0, 3, 0, 0, 1})
	f.Add(uint16(100), uint8(2), []byte{0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 1})
	f.Add(uint16(512), uint8(5), []byte{10, 7, 44, 9, 12, 0, 40, 0, 9, 244, 3, 3})
	f.Fuzz(func(t *testing.T, pageBytes uint16, frames uint8, touches []byte) {
		pb := uint64(pageBytes)%4096 + 1
		fr := int(frames)%24 + 1
		m := New(pb, fr)
		ref := &refModel{pageBytes: pb, frames: fr}
		for i := 0; i+4 <= len(touches); i += 4 {
			c := touches[i : i+4]
			addr := uint64(c[0])*pb + uint64(c[1])%pb
			size := uint64(c[2])*pb/4 + uint64(c[3])
			m.Touch(addr, size)
			ref.touch(addr, size)
			if m.Faults() != ref.faults || m.Accesses() != ref.accesses {
				t.Fatalf("touch %d (addr %d, size %d): faults=%d accesses=%d, reference %d and %d",
					i/4, addr, size, m.Faults(), m.Accesses(), ref.faults, ref.accesses)
			}
			if got := residentOrder(m); !slices.Equal(got, ref.resident) || m.Resident() != len(ref.resident) {
				t.Fatalf("touch %d (addr %d, size %d): resident %v (%d), reference %v",
					i/4, addr, size, got, m.Resident(), ref.resident)
			}
		}
	})
}

// TestFullSetFaultsWithoutAllocating: once the resident set is full,
// every fault evicts a page and reuses its node, so faulting page by
// page allocates nothing, at any frame count.
func TestFullSetFaultsWithoutAllocating(t *testing.T) {
	for _, frames := range []int{1, 16, 1000} {
		m := New(4096, frames)
		page := uint64(0)
		for ; page < uint64(frames); page++ {
			m.Touch(page*4096, 1)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 50; i++ {
				m.Touch(page*4096, 1)
				page++
			}
		})
		if allocs != 0 {
			t.Errorf("%d frames: 50 faults on a full set allocated %v times, want 0", frames, allocs)
		}
		if m.Resident() != frames || m.Faults() != page {
			t.Errorf("%d frames: resident %d, faults %d, want %d and %d", frames, m.Resident(), m.Faults(), frames, page)
		}
	}
}
