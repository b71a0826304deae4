// Package vmem models a virtual-memory resident set with LRU
// replacement, the page-fault axis on which generational collection
// was originally sold ("Generational algorithms have proven successful
// at reducing the pause times and page fault rate of garbage
// collection" — the paper's §2, citing Zorn and Ungar).
//
// The simulator drives it with byte-range touches: the mutator touches
// objects as it allocates and frees them, the collector touches every
// object it traces and writes survivors to fresh addresses (copying
// semantics). Faults count the touched pages absent from the resident
// set.
package vmem

// Model is an LRU page cache over a flat address space.
// The zero value is not usable; call New.
type Model struct {
	pageBytes uint64
	frames    int

	// LRU bookkeeping: a doubly linked list of resident pages with a
	// map index. list uses sentinel-free head/tail indices into nodes.
	nodes map[uint64]*node // page number -> node
	head  *node            // most recently used
	tail  *node            // least recently used

	faults   uint64
	accesses uint64
}

type node struct {
	page       uint64
	prev, next *node
}

// New returns a model with the given page size and resident-set
// capacity in frames. It panics on non-positive arguments. The page
// map grows with the pages touched, so a large capacity costs memory
// only once a trace fills it.
func New(pageBytes uint64, frames int) *Model {
	if pageBytes == 0 || frames <= 0 {
		panic("vmem: New requires positive page size and frame count")
	}
	return &Model{
		pageBytes: pageBytes,
		frames:    frames,
		nodes:     make(map[uint64]*node),
	}
}

// Touch accesses the byte range [addr, addr+size), faulting in any
// non-resident pages. A zero-size touch accesses nothing.
//
// The work is bounded by the resident set, not by the range: once a
// range's first frames pages are resident they are the whole set, so
// every later page of the range misses. A range of more than twice
// frames pages touches its first and last frames pages one by one and
// counts each page between them as one access and one fault, leaving
// the same counts and LRU order as touching every page.
func (m *Model) Touch(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr / m.pageBytes
	last := (addr + size - 1) / m.pageBytes
	if frames := uint64(m.frames); last-first >= 2*frames {
		for p := first; p < first+frames; p++ {
			m.touchPage(p)
		}
		skipped := last - first + 1 - 2*frames
		m.accesses += skipped
		m.faults += skipped
		first = last - frames + 1
	}
	for p := first; p <= last; p++ {
		m.touchPage(p)
	}
}

// touchPage accesses page p. A miss on a full resident set evicts the
// least recently used page and reuses its node for p, so a full set
// faults without allocating.
func (m *Model) touchPage(p uint64) {
	m.accesses++
	if n, ok := m.nodes[p]; ok {
		m.moveToFront(n)
		return
	}
	m.faults++
	var n *node
	if len(m.nodes) < m.frames {
		n = new(node)
	} else {
		n = m.tail
		m.unlink(n)
		delete(m.nodes, n.page)
	}
	n.page = p
	m.nodes[p] = n
	m.pushFront(n)
}

func (m *Model) pushFront(n *node) {
	n.prev = nil
	n.next = m.head
	if m.head != nil {
		m.head.prev = n
	}
	m.head = n
	if m.tail == nil {
		m.tail = n
	}
}

func (m *Model) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (m *Model) moveToFront(n *node) {
	if m.head == n {
		return
	}
	m.unlink(n)
	m.pushFront(n)
}

// Faults returns the number of page faults so far.
func (m *Model) Faults() uint64 { return m.faults }

// Accesses returns the number of page accesses so far.
func (m *Model) Accesses() uint64 { return m.accesses }

// Resident returns the current resident-set size in pages.
func (m *Model) Resident() int { return len(m.nodes) }
