// Package trace defines the allocation-event model that drives the
// garbage-collection simulations, mirroring the paper's methodology:
// "We used memory allocation and deallocation events in these programs
// to drive a simulation of the different garbage collection
// algorithms." (Barrett & Zorn, §5.)
//
// A trace is an ordered stream of events. Alloc and Free events carry
// the liveness oracle the simulator relies on; PtrWrite events carry
// the pointer stores the reachability-based collector in internal/gc
// needs to maintain its remembered set. Every event is stamped with an
// instruction count so the machine model (10 MIPS in the paper) can
// convert simulated work into seconds.
package trace

import (
	"fmt"
	"sort"
)

// ObjectID identifies one heap object within a trace. IDs are assigned
// by the producer and must be unique across the whole trace (an ID is
// never reused after its object is freed).
type ObjectID uint64

// NilObject is the zero ObjectID; it never names a real object and is
// used for null pointer stores.
const NilObject ObjectID = 0

// Kind discriminates trace events.
type Kind uint8

const (
	// KindAlloc records the creation of an object: ID, Size and the
	// instruction timestamp are meaningful.
	KindAlloc Kind = iota + 1
	// KindFree records the death of an object (the point where the
	// original program called free). ID and Instr are meaningful.
	KindFree
	// KindPtrWrite records a pointer store: the field of object ID
	// numbered Field now points at Target (NilObject for a null
	// store). Used by the reachability collector's write barrier.
	KindPtrWrite
	// KindMark is an annotation event (phase boundaries, program
	// milestones); Label is meaningful. Simulators ignore marks.
	KindMark
)

// String returns the single-letter mnemonic used by the text codec.
func (k Kind) String() string {
	switch k {
	case KindAlloc:
		return "a"
	case KindFree:
		return "f"
	case KindPtrWrite:
		return "p"
	case KindMark:
		return "m"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one record of a trace.
type Event struct {
	Kind   Kind
	ID     ObjectID // object allocated/freed, or pointer-store source
	Size   uint64   // alloc: object size in bytes
	Field  uint32   // ptr write: field index within the source object
	Target ObjectID // ptr write: new referent (NilObject = null)
	Instr  uint64   // instruction timestamp, non-decreasing
	Label  string   // mark: annotation text
}

// Alloc constructs an allocation event.
func Alloc(id ObjectID, size, instr uint64) Event {
	return Event{Kind: KindAlloc, ID: id, Size: size, Instr: instr}
}

// Free constructs a deallocation event.
func Free(id ObjectID, instr uint64) Event {
	return Event{Kind: KindFree, ID: id, Instr: instr}
}

// PtrWrite constructs a pointer-store event.
func PtrWrite(src ObjectID, field uint32, dst ObjectID, instr uint64) Event {
	return Event{Kind: KindPtrWrite, ID: src, Field: field, Target: dst, Instr: instr}
}

// Mark constructs an annotation event.
func Mark(label string, instr uint64) Event {
	return Event{Kind: KindMark, Label: label, Instr: instr}
}

// String renders the event in text-codec form.
func (e Event) String() string {
	switch e.Kind {
	case KindAlloc:
		return fmt.Sprintf("a %d %d %d", e.ID, e.Size, e.Instr)
	case KindFree:
		return fmt.Sprintf("f %d %d", e.ID, e.Instr)
	case KindPtrWrite:
		return fmt.Sprintf("p %d %d %d %d", e.ID, e.Field, e.Target, e.Instr)
	case KindMark:
		return fmt.Sprintf("m %q %d", e.Label, e.Instr)
	default:
		return fmt.Sprintf("?(%d)", uint8(e.Kind))
	}
}

// Stats summarizes a trace: volumes, live-byte extrema and event
// counts. It can be accumulated incrementally with Update or computed
// at once with Measure.
type Stats struct {
	Allocs      int
	Frees       int
	PtrWrites   int
	Marks       int
	TotalBytes  uint64 // total bytes allocated over the whole trace
	LiveBytes   uint64 // bytes live right now (after last Update)
	MaxLive     uint64 // maximum of LiveBytes over the trace
	LiveObjects int    // objects live right now
	MaxObjects  int    // maximum simultaneously live objects
	LastInstr   uint64 // timestamp of the final event
	sizes       map[ObjectID]uint64

	// An ID names one object per trace, so an alloc must not reuse an
	// ID allocated before: one that is live (in sizes), in the run
	// runFirst..runFirst+run-1 (mod 2^64), or in freedOff. The run
	// grows while each alloc takes the next ID, so a consecutively
	// numbered trace (the workload generator, trace.Builder, mheap)
	// keeps freedOff empty: validating a 1.06M-event GHOST(1) trace
	// allocates 0.6 MB instead of the 38 MB a set of every freed ID
	// takes. Window's survivors keep their gapped IDs, so its output
	// fills freedOff.
	runFirst ObjectID
	run      uint64
	freedOff map[ObjectID]bool
}

// Update folds one event into the statistics. It returns an error on a
// malformed stream (duplicate allocation, including an ID reused after
// its free, free of an unknown object, or a time regression).
func (s *Stats) Update(e Event) error {
	if s.sizes == nil {
		s.sizes = make(map[ObjectID]uint64)
		s.freedOff = make(map[ObjectID]bool)
	}
	if e.Instr < s.LastInstr {
		return fmt.Errorf("trace: instruction clock regressed %d -> %d", s.LastInstr, e.Instr)
	}
	s.LastInstr = e.Instr
	switch e.Kind {
	case KindAlloc:
		if e.ID == NilObject {
			return fmt.Errorf("trace: allocation of nil object id")
		}
		if _, live := s.sizes[e.ID]; live || uint64(e.ID-s.runFirst) < s.run || s.freedOff[e.ID] {
			return fmt.Errorf("trace: duplicate allocation of object %d", e.ID)
		}
		if s.run == 0 {
			s.runFirst = e.ID
		}
		if e.ID == s.runFirst+ObjectID(s.run) {
			s.run++
		}
		s.sizes[e.ID] = e.Size
		s.Allocs++
		s.TotalBytes += e.Size
		s.LiveBytes += e.Size
		s.LiveObjects++
		if s.LiveBytes > s.MaxLive {
			s.MaxLive = s.LiveBytes
		}
		if s.LiveObjects > s.MaxObjects {
			s.MaxObjects = s.LiveObjects
		}
	case KindFree:
		size, ok := s.sizes[e.ID]
		if !ok {
			return fmt.Errorf("trace: free of unknown or already-freed object %d", e.ID)
		}
		delete(s.sizes, e.ID)
		if uint64(e.ID-s.runFirst) >= s.run {
			s.freedOff[e.ID] = true
		}
		s.Frees++
		s.LiveBytes -= size
		s.LiveObjects--
	case KindPtrWrite:
		if _, ok := s.sizes[e.ID]; !ok {
			return fmt.Errorf("trace: pointer store into dead or unknown object %d", e.ID)
		}
		if e.Target != NilObject {
			if _, ok := s.sizes[e.Target]; !ok {
				return fmt.Errorf("trace: pointer store to dead or unknown target %d", e.Target)
			}
		}
		s.PtrWrites++
	case KindMark:
		s.Marks++
	default:
		return fmt.Errorf("trace: unknown event kind %d", e.Kind)
	}
	return nil
}

// Measure computes statistics for a complete trace.
func Measure(events []Event) (Stats, error) {
	var s Stats
	for i, e := range events {
		if err := s.Update(e); err != nil {
			return s, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return s, nil
}

// Validate checks a complete trace for well-formedness and returns the
// first problem found, or nil.
func Validate(events []Event) error {
	_, err := Measure(events)
	return err
}

// Builder incrementally constructs a well-formed trace, allocating
// object IDs and enforcing the clock invariant. It is the easy path
// for workload generators and tests.
type Builder struct {
	events []Event
	nextID ObjectID
	instr  uint64
	live   map[ObjectID]bool
}

// NewBuilder returns an empty Builder whose first object will get ID 1.
func NewBuilder() *Builder {
	return &Builder{nextID: 1, live: make(map[ObjectID]bool)}
}

// Advance moves the instruction clock forward by n instructions.
func (b *Builder) Advance(n uint64) { b.instr += n }

// Now returns the current instruction clock.
func (b *Builder) Now() uint64 { return b.instr }

// Alloc appends an allocation of size bytes and returns the new
// object's ID.
func (b *Builder) Alloc(size uint64) ObjectID {
	id := b.nextID
	b.nextID++
	b.live[id] = true
	b.events = append(b.events, Alloc(id, size, b.instr))
	return id
}

// Free appends a deallocation. It panics if the object is not live,
// because that is always a generator bug.
func (b *Builder) Free(id ObjectID) {
	if !b.live[id] {
		panic(fmt.Sprintf("trace: Builder.Free of non-live object %d", id))
	}
	delete(b.live, id)
	b.events = append(b.events, Free(id, b.instr))
}

// PtrWrite appends a pointer store event.
func (b *Builder) PtrWrite(src ObjectID, field uint32, dst ObjectID) {
	b.events = append(b.events, PtrWrite(src, field, dst, b.instr))
}

// Mark appends an annotation event.
func (b *Builder) Mark(label string) {
	b.events = append(b.events, Mark(label, b.instr))
}

// Live reports whether the object is currently live in the builder.
func (b *Builder) Live(id ObjectID) bool { return b.live[id] }

// LiveIDs returns the IDs of all currently live objects in ascending
// ID (= allocation) order, so generators that pick victims from it
// produce identical traces run to run.
func (b *Builder) LiveIDs() []ObjectID {
	ids := make([]ObjectID, 0, len(b.live))
	for id := range b.live { //dtbvet:ignore determinism -- keys are sorted before the slice is returned
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Events returns the trace built so far. The returned slice is owned
// by the Builder until the caller stops using it.
func (b *Builder) Events() []Event { return b.events }
