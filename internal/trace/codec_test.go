package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dtbgc/dtbgc/internal/xrand"
)

func sampleTrace() []Event {
	return []Event{
		Alloc(1, 128, 0),
		Alloc(2, 64, 15),
		PtrWrite(1, 0, 2, 20),
		Mark("phase one", 25),
		Free(1, 40),
		PtrWrite(2, 3, NilObject, 41),
		Alloc(3, 1<<20, 1<<40),
		Free(3, 1<<40+5),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, events)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace decoded to %d events", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("not a trace at all")).ReadAll()
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("expected bad-magic error, got %v", err)
	}
}

func TestBinaryTruncatedHeader(t *testing.T) {
	_, err := NewReader(strings.NewReader("DT")).ReadAll()
	if err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestBinaryTruncatedEvent(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop a few bytes off the end: decoding must fail, not hang or
	// silently succeed with a short read mid-event.
	truncated := full[:len(full)-2]
	_, err := NewReader(bytes.NewReader(truncated)).ReadAll()
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if err == io.EOF {
		t.Fatal("truncation reported as clean EOF")
	}
}

func TestBinaryWriterRejectsClockRegression(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Alloc(1, 8, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Alloc(2, 8, 50)); err == nil {
		t.Fatal("writer accepted clock regression")
	}
}

func TestBinaryWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, e := range sampleTrace() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		if w.Count() != i+1 {
			t.Fatalf("Count = %d after %d writes", w.Count(), i+1)
		}
	}
}

func TestBinaryRejectsUnknownKindOnWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(Event{Kind: Kind(200)}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}

func TestBinaryRejectsUnknownKindOnRead(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic)
	buf.WriteByte(200)
	_, err := NewReader(&buf).ReadAll()
	if err == nil {
		t.Fatal("unknown kind byte decoded")
	}
}

func TestBinaryMarkLabelLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic)
	buf.WriteByte(byte(KindMark))
	// Claim a 1 GB label without providing it.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	_, err := NewReader(&buf).ReadAll()
	if err == nil {
		t.Fatal("absurd label length accepted")
	}
}

func TestBinaryRoundTripRandomTraces(t *testing.T) {
	// Property: encode→decode is the identity on any well-formed trace.
	r := xrand.New(2024)
	check := func(seed uint32) bool {
		rr := xrand.New(uint64(seed) ^ r.Uint64())
		b := NewBuilder()
		var liveList []ObjectID
		for i := 0; i < 200; i++ {
			b.Advance(uint64(rr.Intn(1000)))
			switch {
			case len(liveList) > 0 && rr.Bool(0.3):
				k := rr.Intn(len(liveList))
				b.Free(liveList[k])
				liveList = append(liveList[:k], liveList[k+1:]...)
			case len(liveList) > 1 && rr.Bool(0.2):
				b.PtrWrite(liveList[rr.Intn(len(liveList))], uint32(rr.Intn(8)), liveList[rr.Intn(len(liveList))])
			case rr.Bool(0.05):
				b.Mark("m")
			default:
				liveList = append(liveList, b.Alloc(uint64(rr.Range(1, 4096))))
			}
		}
		events := b.Events()
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, events)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("text round trip mismatch:\n got %v\nwant %v", got, events)
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
a 1 100 0

f 1 10
`
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{Alloc(1, 100, 0), Free(1, 10)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTextMarkWithSpacesAndQuotes(t *testing.T) {
	events := []Event{Mark(`hello "quoted" world`, 5)}
	var buf bytes.Buffer
	if err := WriteText(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("got %v, want %v", got, events)
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"z 1 2 3",       // unknown mnemonic
		"a 1",           // missing fields
		"a x 2 3",       // non-numeric
		"p 1 2 3",       // ptr write missing instr
		`m hello 5`,     // unquoted label
		`m "unclosed`,   // unterminated label
		`m "ok" notnum`, // bad timestamp
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) accepted malformed input", in)
		}
	}
}

func TestTextLineNumbersInErrors(t *testing.T) {
	_, err := ReadText(strings.NewReader("a 1 8 0\nbogus line\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should cite line 2, got %v", err)
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	builder := NewBuilder()
	for i := 0; i < 10000; i++ {
		builder.Advance(50)
		id := builder.Alloc(64)
		if i%2 == 0 {
			builder.Free(id)
		}
	}
	events := builder.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteAll(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	builder := NewBuilder()
	for i := 0; i < 10000; i++ {
		builder.Advance(50)
		id := builder.Alloc(64)
		if i%2 == 0 {
			builder.Free(id)
		}
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, builder.Events()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewReader(bytes.NewReader(data)).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadBatchMatchesRead pins ReadBatch to the sequential Read path:
// for every batch size, including 1 and larger than the trace, the
// concatenated batches must equal the event-at-a-time decode, a short
// final batch must carry a nil error, and the call after the clean end
// must return (0, io.EOF).
func TestReadBatchMatchesRead(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, size := range []int{1, 2, 3, len(events), len(events) + 5} {
		r := NewReader(bytes.NewReader(encoded))
		dst := make([]Event, size)
		var got []Event
		for {
			n, err := r.ReadBatch(dst)
			if err == io.EOF {
				if n != 0 {
					t.Fatalf("size %d: io.EOF with %d events — EOF must come alone", size, n)
				}
				break
			}
			if err != nil {
				t.Fatalf("size %d: ReadBatch: %v", size, err)
			}
			if n == 0 {
				t.Fatalf("size %d: ReadBatch returned 0 events with nil error", size)
			}
			got = append(got, dst[:n]...)
			if n < size {
				// Short batch: the stream ended cleanly mid-batch, so the
				// next call must report the EOF on its own.
				if n2, err2 := r.ReadBatch(dst); n2 != 0 || err2 != io.EOF {
					t.Fatalf("size %d: call after short batch = (%d, %v), want (0, io.EOF)", size, n2, err2)
				}
				break
			}
		}
		if !reflect.DeepEqual(got, events) {
			t.Errorf("size %d: ReadBatch decode differs from Read decode:\n got %v\nwant %v", size, got, events)
		}
	}
}

// TestReadBatchTruncatedStream: a decode error mid-batch must return
// the successfully decoded prefix alongside the error.
func TestReadBatchTruncatedStream(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-1]

	r := NewReader(bytes.NewReader(truncated))
	dst := make([]Event, len(events)+1)
	n, err := r.ReadBatch(dst)
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream decoded without error (n=%d, err=%v)", n, err)
	}
	if n == 0 || n >= len(events) {
		t.Fatalf("truncated stream returned %d events, want a non-empty strict prefix of %d", n, len(events))
	}
	if !reflect.DeepEqual(dst[:n], events[:n]) {
		t.Errorf("prefix before the decode error differs from the original events")
	}
}

// TestReadBatchEmptyTrace: a header-only stream is a clean EOF.
func TestReadBatchEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	n, err := r.ReadBatch(make([]Event, 4))
	if n != 0 || err != io.EOF {
		t.Fatalf("empty trace ReadBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// TestRejectedWriteLeavesStreamUntouched: a Write the encoder refuses
// writes no byte and moves neither the clock nor Count, so the events
// written around it still form exactly the trace of the accepted ones.
func TestRejectedWriteLeavesStreamUntouched(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	writes := []struct {
		e      Event
		reject bool
	}{
		{Event{Kind: 0, Instr: 5}, true},
		{Alloc(1, 32, 10), false},
		{Event{Kind: 9, Instr: 50}, true},
		{Alloc(2, 8, 5), true},
		{Free(1, 20), false},
	}
	var accepted []Event
	for _, wr := range writes {
		err := w.Write(wr.e)
		if (err != nil) != wr.reject {
			t.Fatalf("Write(%+v) = %v, want rejected %v", wr.e, err, wr.reject)
		}
		if err == nil {
			accepted = append(accepted, wr.e)
		}
		if w.Count() != len(accepted) {
			t.Fatalf("Count = %d after %d accepted writes", w.Count(), len(accepted))
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteAll(&want, accepted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("stream with rejected writes = % x, want % x", buf.Bytes(), want.Bytes())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil || !reflect.DeepEqual(got, accepted) {
		t.Fatalf("decoded %v, %v; want %v", got, err, accepted)
	}
}

// TestReadErrorsAfterDeliveredRecords: both decoders decode the records
// a source delivered before it failed, then report the failure — a
// read error that arrives together with bytes, or io.ErrNoProgress for
// a source that keeps returning (0, nil) — and never spin.
func TestReadErrorsAfterDeliveredRecords(t *testing.T) {
	events := sampleEvents()
	data := encode(t, events)
	offs := recordOffsets(t, events)
	for _, tc := range []struct {
		mode int
		want error
	}{{deliverError, errInjected}, {deliverStall, io.ErrNoProgress}} {
		for _, cut := range []int{0, 3, offs[2], offs[2] + 1, offs[len(events)]} {
			complete := 0
			for complete < len(events) && offs[complete+1] <= cut {
				complete++
			}
			strict, serr := NewReader(&deliveryReader{data: data, mode: tc.mode, at: cut}).ReadAll()
			recovered, rerr := NewRecoveringReader(&deliveryReader{data: data, mode: tc.mode, at: cut}).ReadAll()
			if serr != tc.want || len(strict) != complete || rerr != tc.want || len(recovered) != complete {
				t.Errorf("fault %d at byte %d: strict %d events, %v; recovering %d events, %v; want %d events, %v",
					tc.mode, cut, len(strict), serr, len(recovered), rerr, complete, tc.want)
			}
		}
	}
}

// TestDecodeAllocsIndependentOfLength: decoding allocates per reader
// (its window), never per event or per refill, so a 400k-event trace
// costs the allocations of a 10k-event one on every decode path.
func TestDecodeAllocsIndependentOfLength(t *testing.T) {
	churn := func(n int) []byte {
		events := make([]Event, 0, n)
		for i := 0; len(events) < n; i++ {
			id := ObjectID(i + 1)
			events = append(events, Alloc(id, uint64(16+i%300), uint64(3*i)), Free(id, uint64(3*i+1)))
		}
		return encode(t, events)
	}
	dst := make([]Event, 4096)
	paths := []struct {
		name   string
		decode func([]byte)
	}{
		{"ReadBatch", func(data []byte) {
			rd := NewReader(bytes.NewReader(data))
			for {
				if _, err := rd.ReadBatch(dst); err != nil {
					return
				}
			}
		}},
		{"Read", func(data []byte) {
			rd := NewReader(bytes.NewReader(data))
			for {
				if _, err := rd.Read(); err != nil {
					return
				}
			}
		}},
		{"RecoveringReader", func(data []byte) {
			rd := NewRecoveringReader(bytes.NewReader(data))
			for {
				if _, err := rd.Read(); err != nil {
					return
				}
			}
		}},
	}
	small, large := churn(10_000), churn(400_000)
	for _, p := range paths {
		a := testing.AllocsPerRun(2, func() { p.decode(small) })
		b := testing.AllocsPerRun(2, func() { p.decode(large) })
		if a != b {
			t.Errorf("%s: %v allocations for 10k events, %v for 400k", p.name, a, b)
		}
	}
}
