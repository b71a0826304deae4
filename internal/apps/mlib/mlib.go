// Package mlib provides the managed data structures the mini-
// applications build on: strings, boxes, vectors, hash tables and
// arbitrary-precision naturals, all allocated as objects on the
// simulated byte-array heap (internal/mheap) so that every table node,
// string and bignum limb the applications touch shows up in the
// allocation trace — the same property QPT instrumentation gave the
// paper's C programs.
package mlib

import (
	"encoding/binary"

	"github.com/dtbgc/dtbgc/internal/mheap"
)

// Allocator is the allocation interface the structures use. Both the
// raw heap (malloc/free style, via Raw) and the collector in
// internal/gc satisfy it.
type Allocator interface {
	Alloc(nptrs, dataBytes int) mheap.Ref
	Heap() *mheap.Heap
}

// Raw adapts a bare heap to Allocator for malloc/free-style programs.
type Raw struct{ H *mheap.Heap }

// Alloc implements Allocator.
func (r Raw) Alloc(nptrs, dataBytes int) mheap.Ref { return r.H.Alloc(nptrs, dataBytes) }

// Heap implements Allocator.
func (r Raw) Heap() *mheap.Heap { return r.H }

// NewString allocates a heap string.
func NewString(a Allocator, s string) mheap.Ref {
	r := a.Alloc(0, len(s))
	copy(a.Heap().Data(r), s)
	return r
}

// StringVal reads a heap string.
func StringVal(h *mheap.Heap, r mheap.Ref) string { return string(h.Data(r)) }

// NewBox allocates a one-int64 cell.
func NewBox(a Allocator, v int64) mheap.Ref {
	r := a.Alloc(0, 8)
	SetBox(a.Heap(), r, v)
	return r
}

// SetBox stores into an int cell.
func SetBox(h *mheap.Heap, r mheap.Ref, v int64) {
	binary.LittleEndian.PutUint64(h.Data(r), uint64(v))
}

// BoxVal reads an int cell.
func BoxVal(h *mheap.Heap, r mheap.Ref) int64 {
	return int64(binary.LittleEndian.Uint64(h.Data(r)))
}

// NewVector allocates an n-slot pointer vector.
func NewVector(a Allocator, n int) mheap.Ref { return a.Alloc(n, 0) }

// VLen returns a vector's slot count.
func VLen(h *mheap.Heap, v mheap.Ref) int { return h.NumPtrs(v) }

// VAt reads vector slot i.
func VAt(h *mheap.Heap, v mheap.Ref, i int) mheap.Ref { return h.Ptr(v, i) }

// VSet writes vector slot i.
func VSet(h *mheap.Heap, v mheap.Ref, i int, x mheap.Ref) { h.SetPtr(v, i, x) }

// Hash table: a vector of bucket chains; each bucket entry is a
// 3-slot node [key-string value next].

const (
	htKey = iota
	htVal
	htNext
)

// Dict is a chained hash table with heap-string keys.
type Dict struct {
	a       Allocator
	table   mheap.Ref // vector of bucket heads
	entries int
}

// NewDict allocates a dictionary with the given bucket count.
func NewDict(a Allocator, buckets int) *Dict {
	if buckets < 1 {
		buckets = 16
	}
	return &Dict{a: a, table: NewVector(a, buckets)}
}

// Table returns the underlying heap object (for rooting under GC).
func (d *Dict) Table() mheap.Ref { return d.table }

// Len returns the number of entries.
func (d *Dict) Len() int { return d.entries }

func hashString(s string) uint32 {
	// FNV-1a.
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// bucket reduces the hash in uint32, so a hash of 2^31 or more cannot
// become a negative int where int is 32 bits wide.
func (d *Dict) bucket(key string) int {
	return int(hashString(key) % uint32(VLen(d.a.Heap(), d.table)))
}

// Set binds key to value, replacing any existing binding.
func (d *Dict) Set(key string, value mheap.Ref) {
	h := d.a.Heap()
	b := d.bucket(key)
	for node := VAt(h, d.table, b); node != mheap.Nil; node = h.Ptr(node, htNext) {
		if StringVal(h, h.Ptr(node, htKey)) == key {
			h.SetPtr(node, htVal, value)
			return
		}
	}
	node := d.a.Alloc(3, 0)
	h.SetPtr(node, htKey, NewString(d.a, key))
	if value != mheap.Nil {
		h.SetPtr(node, htVal, value)
	}
	if head := VAt(h, d.table, b); head != mheap.Nil {
		h.SetPtr(node, htNext, head)
	}
	VSet(h, d.table, b, node)
	d.entries++
}

// Get returns the binding and whether it exists.
func (d *Dict) Get(key string) (mheap.Ref, bool) {
	h := d.a.Heap()
	for node := VAt(h, d.table, d.bucket(key)); node != mheap.Nil; node = h.Ptr(node, htNext) {
		if StringVal(h, h.Ptr(node, htKey)) == key {
			return h.Ptr(node, htVal), true
		}
	}
	return mheap.Nil, false
}

// Keys returns all keys (Go strings; no heap allocation).
func (d *Dict) Keys() []string {
	h := d.a.Heap()
	var keys []string
	for b := 0; b < VLen(h, d.table); b++ {
		for node := VAt(h, d.table, b); node != mheap.Nil; node = h.Ptr(node, htNext) {
			keys = append(keys, StringVal(h, h.Ptr(node, htKey)))
		}
	}
	return keys
}

// FreeAll releases every node, key string and the table itself (values
// are not freed — the caller owns them).
func (d *Dict) FreeAll() {
	h := d.a.Heap()
	for b := 0; b < VLen(h, d.table); b++ {
		node := VAt(h, d.table, b)
		VSet(h, d.table, b, mheap.Nil)
		for node != mheap.Nil {
			next := h.Ptr(node, htNext)
			keyStr := h.Ptr(node, htKey)
			h.SetPtr(node, htKey, mheap.Nil)
			h.SetPtr(node, htVal, mheap.Nil)
			h.SetPtr(node, htNext, mheap.Nil)
			h.Free(keyStr)
			h.Free(node)
			node = next
		}
	}
	h.Free(d.table)
	d.table = mheap.Nil
	d.entries = 0
}
