package daemon

import (
	"container/list"
	"sync"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// The daemon's two caches are both an lru:
//
//   - the tape cache maps a trace content digest (internal/trace.Digest)
//     to its decoded event tape, so a hot trace is decoded once and
//     replayed many times. Each tape costs its approximate in-memory
//     bytes (tapeCost) against Config.TapeCacheBytes.
//   - the memo maps a normalized request's key (EvalRequest.memoKey) to
//     the payload already served for it, so a repeated evaluation is
//     O(lookup) and byte-identical to the first. Each entry costs 1
//     against Config.MemoEntries.
//
// Eviction order is deterministic given the request order, and nothing
// here influences simulation results: a cache miss and a cache hit
// serve the same bytes, which the bit-identity tests prove.

// eventCost approximates the in-memory bytes of one decoded
// trace.Event (struct fields plus slice header overhead); label bytes
// are charged separately. The budget bounds growth, it does not
// meter the allocator exactly.
const eventCost = 64

// tapeCost is the charge for one decoded tape.
func tapeCost(events []trace.Event) int64 {
	cost := int64(len(events)) * eventCost
	for i := range events {
		cost += int64(len(events[i].Label))
	}
	return cost
}

func newTapeCache(budgetBytes int64) *lru[trace.Digest, []trace.Event] {
	return newLRU[trace.Digest](budgetBytes, tapeCost)
}

func newMemoCache(entries int) *lru[string, evalPayload] {
	return newLRU[string](int64(entries), func(evalPayload) int64 { return 1 })
}

// lru is a mutex-guarded least-recently-used cache whose entries are
// charged by a cost function against a budget.
type lru[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	cost   func(V) int64
	order  *list.List // front = most recently used; values are *lruEntry[K, V]
	byKey  map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

func newLRU[K comparable, V any](budget int64, cost func(V) int64) *lru[K, V] {
	return &lru[K, V]{budget: budget, cost: cost, order: list.New(), byKey: make(map[K]*list.Element)}
}

// get returns the value stored under key and marks it most recently
// used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores val under key, evicting least-recently-used entries to fit
// the budget. An entry costlier than the whole budget is still stored
// alone: refusing it would make the one trace a client just uploaded
// unservable. A key already present keeps its first value and is only
// refreshed: both caches are keyed by content, so a second value for a
// key is the same content (a digest names its bytes, and evaluation is
// deterministic), and an in-flight replay never has its tape swapped
// underneath it.
func (c *lru[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	e := &lruEntry[K, V]{key: key, val: val, cost: c.cost(val)}
	c.byKey[key] = c.order.PushFront(e)
	c.used += e.cost
	for c.used > c.budget && c.order.Len() > 1 {
		old := c.order.Remove(c.order.Back()).(*lruEntry[K, V])
		delete(c.byKey, old.key)
		c.used -= old.cost
	}
}

// stats reports current occupancy: the entry count and their summed
// cost.
func (c *lru[K, V]) stats() (entries int, used int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.used
}
