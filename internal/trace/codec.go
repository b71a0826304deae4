package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Binary format
//
//	header:  magic "DTBT" + version byte 0x01
//	event:   kind byte, then kind-specific uvarint fields:
//	         alloc:    id, size, dInstr
//	         free:     id, dInstr
//	         ptrwrite: id, field, target, dInstr
//	         mark:     len(label), label bytes, dInstr
//
// Instruction timestamps are delta-encoded (dInstr = instr - previous
// instr), which keeps long traces compact since most deltas are tiny.

var binaryMagic = []byte{'D', 'T', 'B', 'T', 0x01}

// ErrBadMagic reports a stream that is not a binary DTB trace.
var ErrBadMagic = errors.New("trace: bad magic, not a binary DTB trace")

// Writer encodes events to the binary format.
type Writer struct {
	w         *bufio.Writer
	buf       [1 + 4*binary.MaxVarintLen64]byte // a whole record, less a mark's label
	lastInstr uint64
	wroteHdr  bool
	n         int
}

// NewWriter returns a Writer emitting to w. The header is written
// lazily on the first event (or by Flush on an empty trace).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) header() error {
	if w.wroteHdr {
		return nil
	}
	w.wroteHdr = true
	_, err := w.w.Write(binaryMagic)
	return err
}

// Write encodes one event. An event it rejects (a clock regression or
// an unknown kind) writes nothing and leaves the clock and Count as
// they were, so the events written around it still form a valid trace.
func (w *Writer) Write(e Event) error {
	if e.Instr < w.lastInstr {
		return fmt.Errorf("trace: Writer clock regressed %d -> %d", w.lastInstr, e.Instr)
	}
	rec := append(w.buf[:0], byte(e.Kind))
	switch e.Kind {
	case KindAlloc:
		rec = binary.AppendUvarint(rec, uint64(e.ID))
		rec = binary.AppendUvarint(rec, e.Size)
	case KindFree:
		rec = binary.AppendUvarint(rec, uint64(e.ID))
	case KindPtrWrite:
		rec = binary.AppendUvarint(rec, uint64(e.ID))
		rec = binary.AppendUvarint(rec, uint64(e.Field))
		rec = binary.AppendUvarint(rec, uint64(e.Target))
	case KindMark:
		rec = binary.AppendUvarint(rec, uint64(len(e.Label)))
	default:
		return fmt.Errorf("trace: cannot encode unknown kind %d", e.Kind)
	}
	if err := w.header(); err != nil {
		return err
	}
	if e.Kind == KindMark {
		if _, err := w.w.Write(rec); err != nil {
			return err
		}
		if _, err := w.w.WriteString(e.Label); err != nil {
			return err
		}
		rec = rec[:0]
	}
	rec = binary.AppendUvarint(rec, e.Instr-w.lastInstr)
	if _, err := w.w.Write(rec); err != nil {
		return err
	}
	w.lastInstr = e.Instr
	w.n++
	return nil
}

// Count returns the number of events written so far.
func (w *Writer) Count() int { return w.n }

// Flush writes any buffered data (and the header, if no event was
// ever written) to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	return w.w.Flush()
}

// byteWindow is the input both binary decoders read through: buf holds
// the stream read so far in chunks, and buf[start:end] is the part not
// yet decoded. Records are decoded in place from it by decodeRecord.
// The buffer is allocated once, at windowSize, and doubles only when a
// single record is longer than it (a mark label, at most maxLabel
// bytes).
type byteWindow struct {
	r          io.Reader
	buf        []byte
	start, end int
	hdr        bool  // the magic has been read and checked
	eof        bool  // r returned io.EOF: no more input will arrive
	err        error // a read error that arrived with bytes, held until they are decoded
}

const (
	windowSize = 32 * 1024
	// maxEmptyReads bounds the (0, nil) reads fill accepts in a row
	// before it gives up with io.ErrNoProgress, as bufio.Reader does.
	maxEmptyReads = 100
	// maxLabel caps a mark label's length, so a corrupt length cannot
	// make the decoder buffer an unbounded record.
	maxLabel = 1 << 20
)

// bytes returns the undecoded input.
func (w *byteWindow) bytes() []byte { return w.buf[w.start:w.end] }

// fill moves the undecoded bytes to the front of the buffer and reads
// once more after them. It returns nil when bytes arrived and io.EOF
// at the end of the stream. A read that returns bytes together with
// another error delivers the bytes now and the error on the next call,
// once they have been decoded; bufio.Reader behaves the same, and an
// http.MaxBytesReader returns exactly that pair at its limit.
func (w *byteWindow) fill() error {
	if err := w.err; err != nil {
		w.err = nil
		return err
	}
	if w.eof {
		return io.EOF
	}
	if w.buf == nil {
		w.buf = make([]byte, windowSize)
	}
	w.end = copy(w.buf, w.buf[w.start:w.end])
	w.start = 0
	if w.end == len(w.buf) {
		w.buf = append(w.buf, make([]byte, len(w.buf))...)
	}
	for range maxEmptyReads {
		n, err := w.r.Read(w.buf[w.end:])
		w.end += n
		if err == io.EOF {
			w.eof, err = true, nil
		}
		switch {
		case n > 0:
			w.err = err
			return nil
		case err != nil:
			return err
		case w.eof:
			return io.EOF
		}
	}
	return io.ErrNoProgress
}

// header reads and checks the magic; both decoders call it until hdr
// is set. It is strict for both: recovery never invents a stream
// identity.
func (w *byteWindow) header() error {
	for w.end-w.start < len(binaryMagic) {
		if err := w.fill(); err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: truncated header", ErrBadMagic)
			}
			return err
		}
	}
	if !bytes.Equal(w.bytes()[:len(binaryMagic)], binaryMagic) {
		return ErrBadMagic
	}
	w.start += len(binaryMagic)
	w.hdr = true
	return nil
}

// errShortRecord says the input ended before the record did; with
// more input it might still decode.
var errShortRecord = errors.New("trace: record extends past available bytes")

// errOverflow reports a varint longer than ten bytes or past 2^64,
// with the text binary.ReadUvarint gives it.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// varintErr classifies a varint binary.Uvarint could not decode (n is
// its count): a proper prefix of a varint needs more input, and ten
// continuation bytes overflow whatever follows them.
func varintErr(b []byte, n int) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return errShortRecord
	}
	return errOverflow
}

// decodeRecord decodes the record at the start of b into *e, given the
// previous record's instruction clock, and returns its encoded length.
// It returns errShortRecord when b is a proper prefix of a record that
// might still decode, and a descriptive error when the bytes cannot
// begin a record; *e is then undefined. Every field of *e is written,
// so it may hold a previous event.
func decodeRecord(e *Event, b []byte, lastInstr uint64) (int, error) {
	if len(b) == 0 {
		return 0, errShortRecord
	}
	kind := Kind(b[0])
	var f [4]uint64 // the record's fields in order; the clock delta is last
	nf := 0
	switch kind {
	case KindAlloc:
		nf = 3
	case KindFree:
		nf = 2
	case KindPtrWrite:
		nf = 4
	case KindMark:
		return decodeMark(e, b, lastInstr)
	default:
		return 0, fmt.Errorf("trace: unknown event kind byte %d", b[0])
	}
	pos := 1
	for i := range nf {
		// Most clock deltas, and the IDs and sizes of small traces, fit
		// in one byte.
		if pos < len(b) && b[pos] < 0x80 {
			f[i] = uint64(b[pos])
			pos++
			continue
		}
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, varintErr(b[pos:], n)
		}
		f[i] = v
		pos += n
	}
	switch kind {
	case KindAlloc:
		*e = Event{Kind: kind, ID: ObjectID(f[0]), Size: f[1], Instr: lastInstr + f[2]}
	case KindFree:
		*e = Event{Kind: kind, ID: ObjectID(f[0]), Instr: lastInstr + f[1]}
	default:
		*e = Event{Kind: kind, ID: ObjectID(f[0]), Field: uint32(f[1]), Target: ObjectID(f[2]), Instr: lastInstr + f[3]}
	}
	return pos, nil
}

// decodeMark is decodeRecord for a mark: length, label, clock delta.
// The length is checked against maxLabel before the label is awaited.
func decodeMark(e *Event, b []byte, lastInstr uint64) (int, error) {
	pos := 1
	size, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, varintErr(b[pos:], n)
	}
	if size > maxLabel {
		return 0, fmt.Errorf("trace: mark label length %d exceeds limit", size)
	}
	pos += n
	if uint64(len(b)-pos) < size {
		return 0, errShortRecord
	}
	label := b[pos : pos+int(size)]
	pos += int(size)
	d, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, varintErr(b[pos:], n)
	}
	*e = Event{Kind: KindMark, Label: string(label), Instr: lastInstr + d}
	return pos + n, nil
}

// Reader decodes events from the binary format. It reads its input in
// chunks into a byte window and decodes each record in place from
// there; RecoveringReader shares the window and the record decoder and
// differs only in what it does with a record that does not decode.
type Reader struct {
	in        byteWindow
	lastInstr uint64
	one       [1]Event // Read's batch
}

// NewReader returns a Reader decoding from r. It reads ahead of the
// records it has returned by up to one window (32 KB), as a
// bufio.Reader reads ahead by its buffer size.
func NewReader(r io.Reader) *Reader {
	return &Reader{in: byteWindow{r: r}}
}

// Read decodes the next event. It returns io.EOF at a clean end of
// stream. It is a one-event ReadBatch.
func (r *Reader) Read() (Event, error) {
	if _, err := r.ReadBatch(r.one[:]); err != nil {
		return Event{}, err
	}
	return r.one[0], nil
}

// ReadBatch decodes up to len(dst) events into dst and returns how
// many it filled. A short count with a nil error means the stream
// ended cleanly mid-batch; the next call returns (0, io.EOF). On a
// decode error the events before the failure are returned alongside
// it: io.ErrUnexpectedEOF when the stream ends inside a record. The
// records are decoded straight from the input window into dst, and the
// window is refilled only when it runs dry, so the batched replay
// engine feeds from this loop.
//
//dtbvet:hotpath one call per replay batch, decoding the whole frame
func (r *Reader) ReadBatch(dst []Event) (int, error) {
	if !r.in.hdr {
		if err := r.in.header(); err != nil {
			return 0, err
		}
	}
	n := 0
	for {
		m, err := r.decode(dst[n:])
		n += m
		if err != errShortRecord {
			return n, err
		}
		switch err := r.in.fill(); {
		case err == nil:
		case err != io.EOF:
			return n, err
		case r.in.start < r.in.end:
			return n, io.ErrUnexpectedEOF // the stream ended inside a record
		case n == 0:
			return 0, io.EOF
		default:
			return n, nil
		}
	}
}

// decode fills dst from the window until dst is full (nil) or a
// record does not decode (errShortRecord if it needs more input).
func (r *Reader) decode(dst []Event) (int, error) {
	b, last := r.in.bytes(), r.lastInstr
	n := 0
	var err error
	for ; n < len(dst); n++ {
		var m int
		if m, err = decodeRecord(&dst[n], b, last); err != nil {
			break
		}
		b, last = b[m:], dst[n].Instr
	}
	r.in.start, r.lastInstr = r.in.end-len(b), last
	return n, err
}

// ReadAll decodes the remainder of the stream, batch by batch into the
// spare capacity of the slice it returns. The slice grows as append
// grows it one event at a time, so a caller that keeps the events
// (dtbd caches uploaded traces) holds no more spare capacity than
// append would leave.
func (r *Reader) ReadAll() ([]Event, error) {
	var events []Event
	for {
		if len(events) == cap(events) {
			events = slices.Grow(events, 1)
		}
		n, err := r.ReadBatch(events[len(events):cap(events)])
		events = events[:len(events)+n]
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
	}
}

// WriteAll encodes a whole trace to w in the binary format.
func WriteAll(w io.Writer, events []Event) error {
	tw := NewWriter(w)
	for i, e := range events {
		if err := tw.Write(e); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return tw.Flush()
}

// Text format: one event per line using Event.String mnemonics, with
// '#' comments and blank lines ignored. Intended for hand-written test
// fixtures and human inspection of small traces.

// WriteText encodes a trace in the line-oriented text format.
func WriteText(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the line-oriented text format.
func ReadText(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseTextLine(line)
		if err != nil {
			return events, fmt.Errorf("line %d: %w", lineno, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	return events, nil
}

func parseTextLine(line string) (Event, error) {
	fields := strings.Fields(line)
	u := func(i int) (uint64, error) {
		if i >= len(fields) {
			return 0, fmt.Errorf("missing field %d in %q", i, line)
		}
		return strconv.ParseUint(fields[i], 10, 64)
	}
	switch fields[0] {
	case "a":
		id, err := u(1)
		if err != nil {
			return Event{}, err
		}
		size, err := u(2)
		if err != nil {
			return Event{}, err
		}
		instr, err := u(3)
		if err != nil {
			return Event{}, err
		}
		return Alloc(ObjectID(id), size, instr), nil
	case "f":
		id, err := u(1)
		if err != nil {
			return Event{}, err
		}
		instr, err := u(2)
		if err != nil {
			return Event{}, err
		}
		return Free(ObjectID(id), instr), nil
	case "p":
		src, err := u(1)
		if err != nil {
			return Event{}, err
		}
		field, err := u(2)
		if err != nil {
			return Event{}, err
		}
		dst, err := u(3)
		if err != nil {
			return Event{}, err
		}
		instr, err := u(4)
		if err != nil {
			return Event{}, err
		}
		return PtrWrite(ObjectID(src), uint32(field), ObjectID(dst), instr), nil
	case "m":
		// m "label" instr — label is a Go-quoted string.
		rest := strings.TrimSpace(strings.TrimPrefix(line, "m"))
		if !strings.HasPrefix(rest, `"`) {
			return Event{}, fmt.Errorf("mark label must be quoted in %q", line)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '"' && rest[i-1] != '\\' {
				end = i
				break
			}
		}
		if end < 0 {
			return Event{}, fmt.Errorf("unterminated mark label in %q", line)
		}
		label, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return Event{}, fmt.Errorf("bad mark label in %q: %v", line, err)
		}
		instr, err := strconv.ParseUint(strings.TrimSpace(rest[end+1:]), 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad mark timestamp in %q: %v", line, err)
		}
		return Mark(label, instr), nil
	default:
		return Event{}, fmt.Errorf("unknown event mnemonic %q", fields[0])
	}
}
