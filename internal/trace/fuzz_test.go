package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzReadText: the text parser must never panic and must only accept
// lines it can re-serialize.
func FuzzReadText(f *testing.F) {
	f.Add("a 1 100 0\nf 1 10\n")
	f.Add("p 1 0 2 5\nm \"label\" 6\n")
	f.Add("# comment\n\n a 2 8 1")
	f.Add(`m "esc\"aped" 9`)
	f.Add("a 99999999999999999999 1 1") // overflow
	f.Add("m \"unterminated")
	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadText(bytes.NewReader([]byte(input)))
		if err != nil {
			return
		}
		// Accepted input must round-trip.
		var buf bytes.Buffer
		if err := WriteText(&buf, events); err != nil {
			t.Fatalf("accepted events failed to serialize: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("serialized form failed to parse: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count %d -> %d", len(events), len(again))
		}
	})
}

// Delivery faults FuzzReader injects into the input stream.
const (
	deliverPlain   = iota // the final bytes, then (0, io.EOF)
	deliverEOFWith        // io.EOF arrives with the final bytes
	deliverError          // errInjected arrives with the bytes before the fault offset; the stream then ends
	deliverStall          // (0, nil) forever from the fault offset on
	deliveryModes
)

var errInjected = errors.New("trace test: injected read error")

// deliveryReader hands out data in reads of 1 to 64 bytes, sized in
// turn by reads (64 bytes each when reads is empty), with the delivery
// fault mode at offset at.
type deliveryReader struct {
	data   []byte
	reads  []byte
	mode   int
	at     int
	off, i int
	failed bool
}

func (d *deliveryReader) Read(p []byte) (int, error) {
	if d.failed {
		return 0, io.EOF
	}
	size := 64
	if len(d.reads) > 0 {
		size = int(d.reads[d.i%len(d.reads)])%64 + 1
		d.i++
	}
	limit := len(d.data)
	if d.mode == deliverError || d.mode == deliverStall {
		limit = d.at
	}
	n := copy(p, d.data[d.off:min(d.off+size, limit)])
	d.off += n
	switch {
	case d.off < limit || d.mode == deliverStall:
		return n, nil
	case d.mode == deliverError:
		d.failed = true
		return n, errInjected
	case n > 0 && d.mode == deliverPlain:
		return n, nil
	}
	return n, io.EOF
}

// fuzzBatchSizes are the batch sizes FuzzReader decodes with; 0 means
// one Read per event.
var fuzzBatchSizes = []int{0, 1, 2, 3, 4, 5, 4096}

// decodeAll drains rd in batches of size (per event when 0) and
// returns the events decoded before the first error, and that error.
func decodeAll(t *testing.T, rd *Reader, size int) ([]Event, error) {
	t.Helper()
	var got []Event
	dst := make([]Event, max(size, 1))
	for {
		var n int
		var err error
		if size == 0 {
			if dst[0], err = rd.Read(); err == nil {
				n = 1
			}
		} else {
			n, err = rd.ReadBatch(dst)
		}
		got = append(got, dst[:n]...)
		switch {
		case err == io.EOF && n != 0:
			t.Fatalf("io.EOF returned with %d events; it must come alone", n)
		case err != nil:
			return got, err
		case n == 0:
			t.Fatal("ReadBatch returned no events and no error")
		}
	}
}

// refDecodeAll drains the reference decoder event by event and returns
// the events before its first error, and that error.
func refDecodeAll(rd *refReader) ([]Event, error) {
	var got []Event
	for {
		e, err := rd.Read()
		if err != nil {
			return got, err
		}
		got = append(got, e)
	}
}

// FuzzReader holds the window decoder to the per-byte reference
// decoder: on any input, delivered in reads of 1 to 64 bytes, with a
// read error or a stall at any offset, and decoded in any batch size,
// both must return the same events, then the same error (text and
// errors.Is class). The reference cannot be stalled itself: inside the
// header or a mark label it loops forever in io.ReadFull. So for a
// stall it decodes the bytes before the stall, and the window decoder
// must stop where the reference runs out of input, with
// io.ErrNoProgress.
func FuzzReader(f *testing.F) {
	good := func(events []Event) []byte {
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	type seed struct {
		data  []byte
		reads []byte
		batch uint8
		mode  uint8
		at    uint32
	}
	continuation := func(n int) []byte {
		return append([]byte("DTBT\x01\x01"), bytes.Repeat([]byte{0x80}, n)...)
	}
	long := good([]Event{Alloc(1, 8, 0), Mark(strings.Repeat("L", windowSize+5000), 3), Free(1, 9)})
	sample := good(sampleTrace())
	for _, s := range []seed{
		{data: good(nil), batch: 6},
		{data: good([]Event{Alloc(1, 64, 0), Free(1, 5)}), reads: []byte{2}, batch: 1},
		{data: good([]Event{Mark("m", 1), PtrWrite(1, 2, 3, 4)}), reads: []byte{0}},
		{data: []byte("DTBT\x01\xff\xff\xff"), batch: 5},
		{data: []byte("garbage"), batch: 2},
		{data: long, reads: []byte{62, 6}, batch: 4},                                  // a label longer than the window
		{data: long, reads: []byte{63}, batch: 3, mode: deliverError, at: windowSize}, // read error mid-label
		{data: continuation(9), batch: 6},                                             // io.ErrUnexpectedEOF
		{data: continuation(10), batch: 6},                                            // overflow
		{data: continuation(11), reads: []byte{3}, batch: 1},                          // overflow
		{data: sample, reads: []byte{4}, batch: 6, mode: deliverStall, at: 13},        // (0, nil) forever: io.ErrNoProgress
		{data: sample, reads: []byte{4}, batch: 2, mode: deliverError, at: 13},        // the error arrives with bytes
		{data: sample, reads: []byte{9}, batch: 6, mode: deliverEOFWith},
	} {
		f.Add(s.data, s.reads, s.batch, s.mode, s.at)
	}
	f.Fuzz(func(t *testing.T, data, reads []byte, batch, mode uint8, at uint32) {
		d := deliveryReader{data: data, reads: reads, mode: int(mode) % deliveryModes, at: int(at % uint32(len(data)+1))}
		ref := d
		if d.mode == deliverStall {
			ref = deliveryReader{data: data[:d.at], reads: reads}
		}
		want, werr := refDecodeAll(newRefReader(&ref))
		truncatedHeader := errors.Is(werr, ErrBadMagic) && werr != ErrBadMagic
		if d.mode == deliverStall && (werr == io.EOF || werr == io.ErrUnexpectedEOF || truncatedHeader) {
			werr = io.ErrNoProgress // the stalled decoder waits for the missing input, then gives up
		}
		got, gerr := decodeAll(t, NewReader(&d), fuzzBatchSizes[int(batch)%len(fuzzBatchSizes)])
		if len(got) != len(want) {
			t.Fatalf("decoded %d events, reference %d (errors %v / %v)", len(got), len(want), gerr, werr)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d: %+v, reference %+v", i, got[i], want[i])
			}
		}
		if gerr.Error() != werr.Error() {
			t.Fatalf("after %d events: error %q, reference %q", len(got), gerr, werr)
		}
		for _, class := range []error{io.EOF, io.ErrUnexpectedEOF, ErrBadMagic, io.ErrNoProgress, errInjected} {
			if errors.Is(gerr, class) != errors.Is(werr, class) {
				t.Fatalf("after %d events: errors.Is(%q, %q) differs from the reference's %q", len(got), gerr, class, werr)
			}
		}
		// A cleanly decoded stream re-encodes, provided its clock is
		// monotone (the decoder guarantees that by construction).
		if gerr == io.EOF {
			if err := WriteAll(io.Discard, got); err != nil {
				t.Fatalf("decoded events failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzRecoveringReader: recovery must terminate on any input (resync
// advances at least one byte per attempt), keep its drop accounting
// exact, and salvage only well-formed traces.
func FuzzRecoveringReader(f *testing.F) {
	good := func(events []Event) []byte {
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	clean := good([]Event{Alloc(1, 64, 0), PtrWrite(1, 0, 2, 3), Mark("m", 5), Free(1, 9)})
	f.Add(clean)
	f.Add(clean[:len(clean)-2])                      // torn tail
	f.Add(append(clean[:8], clean[10:]...))          // bytes cut mid-stream
	f.Add(append(good(nil), 0xFF, 0xFF, 0x01, 0x02)) // garbage body
	f.Add([]byte("DTBT\x01"))                        // header only
	f.Add([]byte("garbage"))                         // damaged header
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewRecoveringReader(bytes.NewReader(data))
		events, err := rr.ReadAll()
		if err != nil {
			// Only the strict header check may fail on an in-memory
			// stream; content damage must always be recovered past.
			if len(data) >= len(binaryMagic) && bytes.Equal(data[:len(binaryMagic)], binaryMagic) {
				t.Fatalf("recovery failed on a well-headed stream: %v", err)
			}
			return
		}
		drops := rr.Drops()
		// The accounting invariants the audit layer relies on.
		if (drops.BytesDropped > 0) != drops.Any() {
			t.Fatalf("inconsistent accounting: %+v", drops)
		}
		if drops.TornTail > 1 {
			t.Fatalf("stream ended %d times: %+v", drops.TornTail, drops)
		}
		if body := uint64(len(data) - len(binaryMagic)); drops.BytesDropped > body {
			t.Fatalf("dropped %d bytes from a %d-byte body", drops.BytesDropped, body)
		}
		if rr.Events() != len(events) {
			t.Fatalf("Events()=%d but %d events decoded", rr.Events(), len(events))
		}
		// The clock is monotone even across resync gaps.
		for i := 1; i < len(events); i++ {
			if events[i].Instr < events[i-1].Instr {
				t.Fatalf("clock regressed at %d: %d -> %d", i, events[i-1].Instr, events[i].Instr)
			}
		}
		// Whatever was salvaged re-encodes canonically: encode once,
		// strict-decode, and get the identical events back.
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			t.Fatalf("recovered events failed to re-encode: %v", err)
		}
		again, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("re-encoded stream failed strict decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encode changed event count %d -> %d", len(events), len(again))
		}
		for i := range again {
			if again[i] != events[i] {
				t.Fatalf("re-encode changed event %d: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}
