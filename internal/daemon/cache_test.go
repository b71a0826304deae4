package daemon

import (
	"fmt"
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
)

func testTape(label string, n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Mark(label, uint64(i))
	}
	return events
}

func testDigest(t *testing.T, label string, n int) trace.Digest {
	t.Helper()
	d, err := trace.DigestEvents(testTape(label, n))
	if err != nil {
		t.Fatalf("DigestEvents: %v", err)
	}
	return d
}

func TestTapeCacheEvictsLRU(t *testing.T) {
	tape := testTape("x", 10) // cost 640 + 10 label bytes = 650
	cost := tapeCost(tape)
	c := newTapeCache(2*cost + cost/2) // room for two tapes, not three

	keys := make([]trace.Digest, 3)
	for i := range keys {
		keys[i] = testDigest(t, fmt.Sprintf("k%d", i), 10+i)
	}
	c.put(keys[0], tape)
	c.put(keys[1], tape)
	if _, ok := c.get(keys[0]); !ok {
		t.Fatalf("key 0 evicted while under budget")
	}
	// 0 is now most recently used; inserting 2 must evict 1.
	c.put(keys[2], tape)
	if _, ok := c.get(keys[1]); ok {
		t.Fatalf("LRU key 1 survived eviction")
	}
	for _, k := range []trace.Digest{keys[0], keys[2]} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("key %s evicted out of LRU order", k)
		}
	}
	traces, bytes := c.stats()
	if traces != 2 {
		t.Fatalf("stats traces = %d, want 2", traces)
	}
	if bytes <= 0 || bytes > 2*cost+cost/2 {
		t.Fatalf("stats bytes = %d, outside (0, budget]", bytes)
	}
}

func TestTapeCacheKeepsOversizedTape(t *testing.T) {
	c := newTapeCache(1) // budget smaller than any tape
	key := testDigest(t, "big", 100)
	c.put(key, testTape("big", 100))
	if _, ok := c.get(key); !ok {
		t.Fatalf("oversized tape rejected; the just-uploaded trace must stay servable")
	}
	traces, _ := c.stats()
	if traces != 1 {
		t.Fatalf("stats traces = %d, want 1", traces)
	}
}

func TestTapeCachePutSameDigestKeepsEntry(t *testing.T) {
	c := newTapeCache(1 << 20)
	key := testDigest(t, "dup", 5)
	first := testTape("dup", 5)
	c.put(key, first)
	c.put(key, testTape("dup", 5)) // same digest, different slice
	got, ok := c.get(key)
	if !ok {
		t.Fatalf("entry missing after duplicate put")
	}
	if &got[0] != &first[0] {
		t.Fatalf("duplicate put replaced the stored tape; same digest means same content")
	}
	if _, bytes := c.stats(); bytes != tapeCost(first) {
		t.Fatalf("duplicate put double-charged the budget: %d", bytes)
	}
}

func TestMemoCacheEvictionAndDuplicates(t *testing.T) {
	c := newMemoCache(2)
	c.put("a", evalPayload{Telemetry: "A1"})
	c.put("b", evalPayload{Telemetry: "B"})
	// Duplicate put must keep the original bytes (determinism: same
	// key, same payload — the first answer is THE answer).
	c.put("a", evalPayload{Telemetry: "A2"})
	if got, _ := c.get("a"); got.Telemetry != "A1" {
		t.Fatalf("memo duplicate put replaced payload: %q", got.Telemetry)
	}
	// "a" was just refreshed; inserting "c" evicts "b".
	c.put("c", evalPayload{Telemetry: "C"})
	if _, ok := c.get("b"); ok {
		t.Fatalf("LRU memo entry survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatalf("recently used memo entry evicted")
	}
	if n, _ := c.stats(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}
