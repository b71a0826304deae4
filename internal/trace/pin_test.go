package trace_test

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// pinnedTrace is GHOST(1) at scale 0.01 followed by hand-built records
// covering every shape the encoder emits: all four kinds; IDs, sizes,
// fields and clock deltas at 1-, 2-, 5- and 10-byte varints; and a mark
// label longer than the decoder's 32 KB input window.
func pinnedTrace(t *testing.T) []trace.Event {
	t.Helper()
	p, err := workload.ByName("GHOST(1)")
	if err != nil {
		t.Fatal(err)
	}
	events, err := p.Scale(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	clock := events[len(events)-1].Instr
	at := func(d uint64) uint64 { clock += d; return clock }
	widths := []uint64{0x7f, 0x3fff, 1<<35 - 1, 1 << 63} // 1, 2, 5, 10 bytes
	for _, v := range widths {
		events = append(events, trace.Alloc(trace.ObjectID(v), v, at(v)))
	}
	events = append(events,
		trace.PtrWrite(0x7f, 0x3fff, 1<<35-1, at(0)),
		trace.PtrWrite(math.MaxUint64, math.MaxUint32, trace.NilObject, at(1)),
		trace.Mark(strings.Repeat("dtb!", 9000), at(2)),
		trace.Mark("", at(0x3fff)),
	)
	for _, v := range widths {
		events = append(events, trace.Free(trace.ObjectID(v), at(0x7f)))
	}
	return events
}

// TestEncodingDigestPinned pins the binary encoding byte for byte:
// content-addressed tapes and every trace file on disk depend on it,
// and self round trips alone would not notice an encoder and decoder
// that changed together.
func TestEncodingDigestPinned(t *testing.T) {
	const want = "b52b9323d79b9ac47cbe2ff5cade6b9a495045bc4a95528b71bc93aa6c7137f2"
	events := pinnedTrace(t)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	d, err := trace.DigestEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != want {
		t.Errorf("encoding digest = %s, want %s (%d events, %d bytes)", d, want, len(events), buf.Len())
	}
	got, err := trace.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, events) {
		t.Error("pinned trace does not decode to itself")
	}
}
