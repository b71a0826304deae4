// Package mheap is the simulated managed heap the mini-applications
// and the reachability collector run on.
//
// Object payloads live inside plain []byte segments and references
// between objects are object IDs encoded with encoding/binary — never
// Go pointers — so Go's own garbage collector sees only a handful of
// flat allocations and cannot interfere with the experiments (the
// reason the reproduction uses byte arrays in the first place).
//
// Each object is laid out in the byte array as
//
//	[ size uint32 | nptrs uint32 | birth uint64 | ptr slots | data ]
//
// where the pointer slots hold 8-byte object IDs. The heap offers two
// reclamation styles: explicit Free (malloc/free programs — the
// mini-apps) backed by segregated free lists, and bulk Reclaim (used
// by the collector in internal/gc after it computes reachability).
// Because references are IDs, reclamation needs no pointer forwarding.
//
// A heap can record every allocation, free and pointer store as a
// trace event (SetRecorder), which is how the mini-applications
// produce the malloc/free traces that drive the simulator — the
// QPT-instrumentation stand-in.
package mheap

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Ref names a heap object. The zero Ref is the nil reference.
type Ref = trace.ObjectID

// Nil is the null reference.
const Nil Ref = 0

const (
	headerBytes = 16 // size + nptrs + birth
	ptrBytes    = 8
)

type entry struct {
	addr  uint64 // offset of the header in the space
	total uint32 // header + payload bytes
	birth core.Time
	dead  bool
}

// Heap is a byte-array-backed object heap. It is not safe for
// concurrent use; the simulated programs are single-threaded like the
// paper's.
type Heap struct {
	space   []byte
	next    uint64 // bump pointer
	objects map[Ref]entry
	nextID  Ref

	// Segregated free lists: freeLists[c] holds addresses of freed
	// blocks whose total size is exactly classSize[c]. Blocks are
	// rounded up to a class at allocation so reuse is exact-fit.
	freeLists map[uint32][]uint64

	inUseBytes uint64    // bytes occupied by non-dead objects (payload+header)
	allocClock core.Time // cumulative payload bytes allocated
	instr      uint64    // instruction clock for trace stamps

	recorder   func(trace.Event)
	onPtrWrite func(src Ref, field int, old, new Ref)
}

// New returns an empty heap.
func New() *Heap {
	return &Heap{
		objects:   make(map[Ref]entry),
		nextID:    1,
		freeLists: make(map[uint32][]uint64),
	}
}

// SetRecorder installs a sink receiving one trace event per
// allocation, free and pointer store. Pass nil to stop recording.
func (h *Heap) SetRecorder(rec func(trace.Event)) { h.recorder = rec }

// SetWriteBarrier installs the pointer-store hook the collector uses
// to maintain its remembered set. It fires after the store, with both
// the overwritten and the new referent.
func (h *Heap) SetWriteBarrier(wb func(src Ref, field int, old, new Ref)) { h.onPtrWrite = wb }

// Tick advances the instruction clock used to stamp recorded events,
// modelling program work between heap operations.
func (h *Heap) Tick(instrs uint64) { h.instr += instrs }

// Now returns the instruction clock.
func (h *Heap) Now() uint64 { return h.instr }

// Clock returns the allocation clock (cumulative payload bytes).
func (h *Heap) Clock() core.Time { return h.allocClock }

// BytesInUse returns the bytes currently occupied by objects,
// including headers.
func (h *Heap) BytesInUse() uint64 { return h.inUseBytes }

// NumObjects returns the number of live objects.
func (h *Heap) NumObjects() int { return len(h.objects) }

// SpaceBytes returns the size of the backing byte array — the
// footprint a real process would occupy, including fragmentation.
func (h *Heap) SpaceBytes() int { return len(h.space) }

// sizeClass rounds a block size up to its allocation class: 16-byte
// granules up to 256 bytes, then powers of two.
func sizeClass(n uint32) uint32 {
	if n <= 256 {
		return (n + 15) &^ 15
	}
	c := uint32(256)
	for c < n {
		c *= 2
	}
	return c
}

func (h *Heap) grow(n uint64) uint64 {
	addr := h.next
	need := int(h.next + n)
	if need > len(h.space) {
		grown := make([]byte, max(need, 2*len(h.space)+4096))
		copy(grown, h.space)
		h.space = grown
	}
	h.next += n
	return addr
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Alloc creates an object with nptrs pointer slots (initialized to
// Nil) and dataBytes bytes of raw data (zeroed), returning its Ref.
// It panics on negative arguments — always a program bug.
//
//dtbvet:hotpath one call per object the mutator allocates
func (h *Heap) Alloc(nptrs, dataBytes int) Ref {
	if nptrs < 0 || dataBytes < 0 {
		panic("mheap: negative allocation request")
	}
	payload := uint32(nptrs*ptrBytes + dataBytes)
	total := sizeClass(headerBytes + payload)

	var addr uint64
	if list := h.freeLists[total]; len(list) > 0 {
		addr = list[len(list)-1]
		h.freeLists[total] = list[:len(list)-1]
		// Zero the reused block.
		clear(h.space[addr : addr+uint64(total)])
	} else {
		addr = h.grow(uint64(total))
	}

	id := h.nextID
	h.nextID++
	h.allocClock = h.allocClock.Add(uint64(headerBytes + payload))
	binary.LittleEndian.PutUint32(h.space[addr:], payload)
	binary.LittleEndian.PutUint32(h.space[addr+4:], uint32(nptrs))
	binary.LittleEndian.PutUint64(h.space[addr+8:], h.allocClock.Bytes())
	h.objects[id] = entry{addr: addr, total: total, birth: h.allocClock}
	h.inUseBytes += uint64(headerBytes + payload)

	if h.recorder != nil {
		h.recorder(trace.Alloc(id, uint64(headerBytes+payload), h.instr))
	}
	return id
}

func (h *Heap) lookup(r Ref) entry {
	e, ok := h.objects[r]
	if !ok {
		panic(fmt.Sprintf("mheap: access to unknown or freed object %d", r))
	}
	return e
}

// Free explicitly deallocates an object (malloc/free style). Freeing
// Nil is a no-op, matching free(NULL); freeing an unknown or
// already-freed object panics.
//
//dtbvet:hotpath one call per object the mutator frees
func (h *Heap) Free(r Ref) {
	if r == Nil {
		return
	}
	e := h.lookup(r)
	delete(h.objects, r)
	h.freeLists[e.total] = append(h.freeLists[e.total], e.addr)
	payload := binary.LittleEndian.Uint32(h.space[e.addr:])
	h.inUseBytes -= uint64(headerBytes + payload)
	if h.recorder != nil {
		h.recorder(trace.Free(r, h.instr))
	}
}

// Reclaim bulk-frees objects the collector proved unreachable. It does
// not emit Free events (the death was already implied by the program's
// pointer structure, and the simulator's oracle comes from explicit
// frees only).
func (h *Heap) Reclaim(refs []Ref) (bytes uint64) {
	for _, r := range refs {
		e := h.lookup(r)
		delete(h.objects, r)
		h.freeLists[e.total] = append(h.freeLists[e.total], e.addr)
		payload := binary.LittleEndian.Uint32(h.space[e.addr:])
		n := uint64(headerBytes + payload)
		h.inUseBytes -= n
		bytes += n
	}
	return bytes
}

// Contains reports whether r names a live (not freed) object.
func (h *Heap) Contains(r Ref) bool {
	_, ok := h.objects[r]
	return ok
}

// Birth returns the object's allocation-clock birth time.
func (h *Heap) Birth(r Ref) core.Time { return h.lookup(r).birth }

// Size returns the object's payload size in bytes (pointer slots plus
// data), excluding the header.
func (h *Heap) Size(r Ref) int {
	e := h.lookup(r)
	return int(binary.LittleEndian.Uint32(h.space[e.addr:]))
}

// TotalSize returns the object's footprint including its header.
func (h *Heap) TotalSize(r Ref) int { return h.Size(r) + headerBytes }

// NumPtrs returns the number of pointer slots.
func (h *Heap) NumPtrs(r Ref) int {
	e := h.lookup(r)
	return int(binary.LittleEndian.Uint32(h.space[e.addr+4:]))
}

func (h *Heap) ptrOff(r Ref, i int) uint64 {
	e := h.lookup(r)
	n := int(binary.LittleEndian.Uint32(h.space[e.addr+4:]))
	if i < 0 || i >= n {
		panic(fmt.Sprintf("mheap: pointer slot %d out of range [0,%d) in object %d", i, n, r))
	}
	return e.addr + headerBytes + uint64(i*ptrBytes)
}

// Ptr reads pointer slot i of object r.
//
//dtbvet:hotpath one call per pointer slot the collector traces
func (h *Heap) Ptr(r Ref, i int) Ref {
	return Ref(binary.LittleEndian.Uint64(h.space[h.ptrOff(r, i):]))
}

// AppendPtrs appends every pointer slot of object r to dst in slot
// order and returns the extended slice. One lookup serves the whole
// object — the collector's trace loop reads pointers through this
// with a reused scratch slice instead of paying a map lookup per Ptr
// call.
//
//dtbvet:hotpath one call per object the collector traces
func (h *Heap) AppendPtrs(dst []Ref, r Ref) []Ref {
	e := h.lookup(r)
	n := uint64(binary.LittleEndian.Uint32(h.space[e.addr+4:]))
	base := e.addr + headerBytes
	for i := uint64(0); i < n; i++ {
		dst = append(dst, Ref(binary.LittleEndian.Uint64(h.space[base+i*ptrBytes:]))) //dtbvet:ignore hotalloc -- dst is the caller's reused scratch slice; it grows to the widest object once and then appends stay in capacity (pinned by TestAppendPtrsSteadyStateAllocs)
	}
	return dst
}

// SetPtr stores target into pointer slot i of object r, firing the
// write barrier and the trace recorder. target must be Nil or live.
//
//dtbvet:hotpath one call per pointer store the mutator makes
func (h *Heap) SetPtr(r Ref, i int, target Ref) {
	if target != Nil && !h.Contains(target) {
		panic(fmt.Sprintf("mheap: store of dangling reference %d", target))
	}
	off := h.ptrOff(r, i)
	old := Ref(binary.LittleEndian.Uint64(h.space[off:]))
	binary.LittleEndian.PutUint64(h.space[off:], uint64(target))
	if h.recorder != nil {
		h.recorder(trace.PtrWrite(r, uint32(i), target, h.instr))
	}
	if h.onPtrWrite != nil {
		h.onPtrWrite(r, i, old, target)
	}
}

// Data returns the raw-data region of object r (the payload beyond the
// pointer slots) as a slice aliasing the heap's backing array. The
// slice is invalidated by the next Alloc; callers must not retain it.
func (h *Heap) Data(r Ref) []byte {
	e := h.lookup(r)
	payload := binary.LittleEndian.Uint32(h.space[e.addr:])
	nptrs := binary.LittleEndian.Uint32(h.space[e.addr+4:])
	start := e.addr + headerBytes + uint64(nptrs)*ptrBytes
	end := e.addr + headerBytes + uint64(payload)
	return h.space[start:end]
}

// Refs returns the live object IDs sorted by birth time (oldest
// first), the order the threatening boundary partitions.
func (h *Heap) Refs() []Ref {
	refs := make([]Ref, 0, len(h.objects))
	for r := range h.objects { //dtbvet:ignore determinism -- refs are sorted by birth time below
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool {
		bi, bj := h.objects[refs[i]].birth, h.objects[refs[j]].birth
		if bi != bj {
			return bi < bj
		}
		return refs[i] < refs[j]
	})
	return refs
}

// LiveBytesBornAfter sums the footprints of live objects born strictly
// after t (part of the core.Heap view for boundary policies; here
// "live" means not yet freed or reclaimed).
func (h *Heap) LiveBytesBornAfter(t core.Time) uint64 {
	var sum uint64
	for r, e := range h.objects { //dtbvet:ignore determinism -- order-insensitive sum of live bytes
		if e.birth > t {
			sum += uint64(h.TotalSize(r))
		}
	}
	return sum
}

// CheckIntegrity validates the heap's internal invariants: byte
// accounting, header consistency and free-list disjointness. Tests
// call it after every mutation sequence.
func (h *Heap) CheckIntegrity() error {
	var sum uint64
	seen := make(map[uint64]Ref)
	for r, e := range h.objects { //dtbvet:ignore determinism -- diagnostic-only: which of several invariant breaks is reported first may vary
		if e.addr+uint64(e.total) > h.next {
			return fmt.Errorf("mheap: object %d extends past bump pointer", r)
		}
		payload := binary.LittleEndian.Uint32(h.space[e.addr:])
		if headerBytes+payload > e.total {
			return fmt.Errorf("mheap: object %d payload %d exceeds block %d", r, payload, e.total)
		}
		nptrs := binary.LittleEndian.Uint32(h.space[e.addr+4:])
		if uint64(nptrs)*ptrBytes > uint64(payload) {
			return fmt.Errorf("mheap: object %d pointer slots exceed payload", r)
		}
		if prev, dup := seen[e.addr]; dup {
			return fmt.Errorf("mheap: objects %d and %d share address %d", prev, r, e.addr)
		}
		seen[e.addr] = r
		sum += uint64(headerBytes + payload)
		for i := 0; i < int(nptrs); i++ {
			p := h.Ptr(r, i)
			if p != Nil && !h.Contains(p) {
				return fmt.Errorf("mheap: object %d slot %d holds dangling ref %d", r, i, p)
			}
		}
	}
	if sum != h.inUseBytes {
		return fmt.Errorf("mheap: inUseBytes %d != recomputed %d", h.inUseBytes, sum)
	}
	for class, list := range h.freeLists { //dtbvet:ignore determinism -- diagnostic-only: which aliasing free block is reported first may vary
		for _, addr := range list {
			if owner, live := seen[addr]; live {
				return fmt.Errorf("mheap: free block %d (class %d) aliases live object %d", addr, class, owner)
			}
		}
	}
	return nil
}

var _ core.Heap = (*Heap)(nil)
