package trace

import (
	"bytes"
	"io"
	"testing"
)

// sampleEvents returns a small deterministic trace with every event
// kind and non-trivial clock deltas.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindAlloc, ID: 1, Size: 64, Instr: 10},
		{Kind: KindAlloc, ID: 2, Size: 4096, Instr: 300},
		{Kind: KindPtrWrite, ID: 1, Field: 2, Target: 2, Instr: 420},
		{Kind: KindMark, Label: "phase-one", Instr: 1000},
		{Kind: KindFree, ID: 1, Instr: 1500},
		{Kind: KindAlloc, ID: 3, Size: 128, Instr: 2200},
		{Kind: KindFree, ID: 2, Instr: 9000},
	}
}

// encode returns the canonical binary stream for events.
func encode(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	return buf.Bytes()
}

// recordOffsets returns the byte offset where each event's record
// starts (and the total length as the final entry), derived from
// encoding successive prefixes — the delta clock makes each record's
// length a function of its prefix only.
func recordOffsets(t *testing.T, events []Event) []int {
	t.Helper()
	offs := make([]int, 0, len(events)+1)
	for i := 0; i <= len(events); i++ {
		offs = append(offs, len(encode(t, events[:i])))
	}
	return offs
}

func recoverAll(t *testing.T, data []byte) ([]Event, DropStats) {
	t.Helper()
	rr := NewRecoveringReader(bytes.NewReader(data))
	events, err := rr.ReadAll()
	if err != nil {
		t.Fatalf("recovering ReadAll: %v", err)
	}
	return events, rr.Drops()
}

func TestRecoverCleanStream(t *testing.T) {
	want := sampleEvents()
	got, drops := recoverAll(t, encode(t, want))
	if drops.Any() {
		t.Fatalf("clean stream reported drops: %+v", drops)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecoverCorruptRecordExactAccounting(t *testing.T) {
	events := sampleEvents()
	data := encode(t, events)
	offs := recordOffsets(t, events)

	// Obliterate record 3 (the KindMark) with bytes that can never
	// start a record: every resync attempt fails on them, so the whole
	// span is dropped as one corrupt episode and decoding picks up at
	// record 4 exactly.
	const victim = 3
	start, end := offs[victim], offs[victim+1]
	for i := start; i < end; i++ {
		data[i] = 0xFF
	}

	got, drops := recoverAll(t, data)
	if want := (DropStats{CorruptRecords: 1, BytesDropped: uint64(end - start)}); drops != want {
		t.Fatalf("drops = %+v, want %+v", drops, want)
	}
	if want := len(events) - 1; len(got) != want {
		t.Fatalf("decoded %d events, want %d", len(got), want)
	}
	// Events before the damage decode identically; events after keep
	// their kind and payload, with the clock re-based across the gap
	// (the victim's delta is lost with its record).
	for i := 0; i < victim; i++ {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
	for i := victim + 1; i < len(events); i++ {
		g, w := got[i-1], events[i]
		if g.Kind != w.Kind || g.ID != w.ID || g.Size != w.Size || g.Label != w.Label {
			t.Errorf("post-gap event: got %+v, want payload of %+v", g, w)
		}
	}
	// The clock stays monotone through the resync.
	for i := 1; i < len(got); i++ {
		if got[i].Instr < got[i-1].Instr {
			t.Fatalf("clock regressed: %d then %d", got[i-1].Instr, got[i].Instr)
		}
	}
}

func TestRecoverTornTailExactAccounting(t *testing.T) {
	events := sampleEvents()
	data := encode(t, events)
	offs := recordOffsets(t, events)

	// Cut the stream two bytes into the final record: a torn tail. The
	// partial record's bytes are dropped in one accounted bite.
	last := len(events) - 1
	cut := offs[last] + 2
	if cut >= offs[last+1] {
		t.Fatalf("final record too short for the test: %d bytes", offs[last+1]-offs[last])
	}
	got, drops := recoverAll(t, data[:cut])
	if want := (DropStats{TornTail: 1, BytesDropped: uint64(cut - offs[last])}); drops != want {
		t.Fatalf("drops = %+v, want %+v", drops, want)
	}
	if len(got) != last {
		t.Fatalf("decoded %d events, want %d", len(got), last)
	}
}

func TestRecoverTruncationAtRecordBoundaryIsClean(t *testing.T) {
	events := sampleEvents()
	data := encode(t, events)
	offs := recordOffsets(t, events)
	// Truncation exactly between records loses trailing events but no
	// partial bytes: the decoder cannot know more was intended, so the
	// stream reads as a clean, shorter trace.
	got, drops := recoverAll(t, data[:offs[4]])
	if drops.Any() {
		t.Fatalf("boundary truncation reported drops: %+v", drops)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d events, want 4", len(got))
	}
}

func TestRecoverAllGarbageTerminates(t *testing.T) {
	data := append([]byte(nil), encode(t, nil)...) // header only
	garbage := bytes.Repeat([]byte{0xFF}, 64*1024)
	data = append(data, garbage...)
	got, drops := recoverAll(t, data)
	if len(got) != 0 {
		t.Fatalf("decoded %d events from garbage", len(got))
	}
	if want := (DropStats{CorruptRecords: 1, BytesDropped: uint64(len(garbage))}); drops != want {
		t.Fatalf("drops = %+v, want %+v", drops, want)
	}
}

func TestRecoverHeaderStaysStrict(t *testing.T) {
	rr := NewRecoveringReader(bytes.NewReader([]byte("NOTATRACE")))
	if _, err := rr.ReadBatch(make([]Event, 1)); err == nil || !bytes.Contains([]byte(err.Error()), []byte("magic")) {
		t.Fatalf("damaged magic: got %v, want ErrBadMagic", err)
	}
	rr = NewRecoveringReader(bytes.NewReader(nil))
	if _, err := rr.ReadBatch(make([]Event, 1)); err == nil || err == io.EOF {
		t.Fatalf("empty stream: got %v, want a bad-magic error", err)
	}
}

func TestRecoveredStreamReencodesCanonically(t *testing.T) {
	events := sampleEvents()
	data := encode(t, events)
	offs := recordOffsets(t, events)
	for i := offs[2]; i < offs[3]; i++ {
		data[i] = 0xFF
	}
	recovered, drops := recoverAll(t, data)
	if !drops.Any() {
		t.Fatal("expected drops from the corrupted record")
	}
	// Whatever recovery salvages is a well-formed trace: it re-encodes
	// and strict-decodes to exactly itself.
	reencoded := encode(t, recovered)
	got, err := NewReader(bytes.NewReader(reencoded)).ReadAll()
	if err != nil {
		t.Fatalf("strict re-decode of recovered stream: %v", err)
	}
	if len(got) != len(recovered) {
		t.Fatalf("re-decoded %d events, want %d", len(got), len(recovered))
	}
	for i := range got {
		if got[i] != recovered[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], recovered[i])
		}
	}
}

// Satellite regression: a header-only stream (what Writer.Flush emits
// for an empty trace) is a clean empty trace in both modes, not a
// truncation error.
func TestHeaderOnlyStreamIsCleanEmptyTrace(t *testing.T) {
	headerOnly := encode(t, nil)

	sr := NewReader(bytes.NewReader(headerOnly))
	if _, err := sr.ReadBatch(make([]Event, 1)); err != io.EOF {
		t.Fatalf("strict ReadBatch on header-only stream: %v, want io.EOF", err)
	}
	events, err := NewReader(bytes.NewReader(headerOnly)).ReadAll()
	if err != nil || len(events) != 0 {
		t.Fatalf("strict ReadAll on header-only stream: %d events, %v", len(events), err)
	}

	rr := NewRecoveringReader(bytes.NewReader(headerOnly))
	if _, err := rr.ReadBatch(make([]Event, 1)); err != io.EOF {
		t.Fatalf("recovering ReadBatch on header-only stream: %v, want io.EOF", err)
	}
	if rr.Drops().Any() {
		t.Fatalf("header-only stream reported drops: %+v", rr.Drops())
	}
}

func TestDropStatsString(t *testing.T) {
	if got := (DropStats{}).String(); got != "no drops" {
		t.Errorf("zero DropStats: %q", got)
	}
	d := DropStats{CorruptRecords: 2, TornTail: 1, BytesDropped: 37}
	if got := d.String(); got != "2 corrupt record span(s), torn tail, 37 byte(s) dropped" {
		t.Errorf("String() = %q", got)
	}
	var sum DropStats
	sum.Add(d)
	sum.Add(DropStats{CorruptRecords: 1, BytesDropped: 5})
	if want := (DropStats{CorruptRecords: 3, TornTail: 1, BytesDropped: 42}); sum != want {
		t.Errorf("Add: %+v, want %+v", sum, want)
	}
}
