package trace

import (
	"fmt"
	"io"
)

// Recovery mode for the binary codec: a RecoveringReader decodes as
// much of a damaged stream as it can instead of stopping at the first
// bad byte, and accounts for every byte it gives up on. Two things are
// non-negotiable:
//
//   - Exact accounting. Every input byte after the header is either
//     part of a decoded record or counted in DropStats.BytesDropped —
//     nothing is skipped silently. Drops are typed: a resync episode
//     past corrupt bytes is a CorruptRecords count, a stream that ends
//     inside a record is a TornTail.
//   - Guaranteed progress. Resync advances at least one byte per
//     failed attempt, so decoding any stream terminates in at most
//     len(stream) attempts — recovery can be slow on garbage, never
//     stuck.
//
// The header stays strict: a stream whose magic is damaged is not a
// trace, and "recovering" it would fabricate data from noise.
//
// Recovery is best effort by nature — resyncing into the middle of a
// record can decode byte salad as a plausible event — but whatever it
// returns is a well-formed trace (monotone clock, known kinds), and
// the drop accounting tells the consumer exactly how much of the
// stream it rests on.

// DropStats counts what recovery discarded. The zero value means the
// stream decoded completely.
type DropStats struct {
	// CorruptRecords counts resync episodes: maximal contiguous byte
	// spans abandoned after a record failed to decode. One corrupted
	// record usually costs one episode; the count is of episodes, not
	// of original records destroyed (which the stream no longer says).
	CorruptRecords int
	// TornTail is 1 when the stream ended partway through a record (a
	// truncated file tail), else 0.
	TornTail int
	// BytesDropped is the total encoded bytes skipped across both
	// kinds. It is exact: header and decoded records account for every
	// other byte of the input.
	BytesDropped uint64
}

// Any reports whether anything was dropped.
func (d DropStats) Any() bool { return d.CorruptRecords > 0 || d.TornTail > 0 }

// Add accumulates another reader's drops (e.g. across a resumed
// replay's reopened streams).
func (d *DropStats) Add(o DropStats) {
	d.CorruptRecords += o.CorruptRecords
	d.TornTail += o.TornTail
	d.BytesDropped += o.BytesDropped
}

// String renders the accounting for logs: "2 corrupt record span(s),
// torn tail, 37 byte(s) dropped".
func (d DropStats) String() string {
	if !d.Any() {
		return "no drops"
	}
	s := ""
	if d.CorruptRecords > 0 {
		s += fmt.Sprintf("%d corrupt record span(s)", d.CorruptRecords)
	}
	if d.TornTail > 0 {
		if s != "" {
			s += ", "
		}
		s += "torn tail"
	}
	return fmt.Sprintf("%s, %d byte(s) dropped", s, d.BytesDropped)
}

// RecoveringReader decodes the binary format with recovery: corrupt
// records are resynced past and a torn tail is absorbed, both counted
// in Drops. It reads through the same byte window and record decoder
// as Reader and differs only where a record does not decode: Reader
// returns the error, RecoveringReader resyncs. Use it where a partial
// answer over a damaged capture beats no answer — and always surface
// Drops; the strict Reader remains the default for data whose
// integrity matters.
type RecoveringReader struct {
	in        byteWindow
	lastInstr uint64
	drops     DropStats
	inSkip    bool // mid resync-episode
	events    int
}

// NewRecoveringReader returns a recovery-mode decoder for r. Like
// NewReader, it reads ahead by up to one window.
func NewRecoveringReader(r io.Reader) *RecoveringReader {
	return &RecoveringReader{in: byteWindow{r: r}}
}

// Drops returns the accounting so far; final once Read has returned
// io.EOF.
func (r *RecoveringReader) Drops() DropStats { return r.drops }

// Events returns the number of events decoded so far.
func (r *RecoveringReader) Events() int { return r.events }

// skipByte abandons one window byte as part of a resync episode.
func (r *RecoveringReader) skipByte() {
	r.inSkip = true
	r.drops.BytesDropped++
	r.in.start++
}

// closeEpisode ends a resync episode, if one is open.
func (r *RecoveringReader) closeEpisode() {
	if r.inSkip {
		r.inSkip = false
		r.drops.CorruptRecords++
	}
}

// Read decodes the next recoverable event. io.EOF is the clean end:
// by then Drops holds the final accounting. Errors other than io.EOF
// are real I/O failures from the underlying reader (or a damaged
// header) — recovery absorbs damaged content, not a failing disk.
func (r *RecoveringReader) Read() (Event, error) {
	if !r.in.hdr {
		if err := r.in.header(); err != nil {
			return Event{}, err
		}
	}
	for {
		var e Event
		n, err := decodeRecord(&e, r.in.bytes(), r.lastInstr)
		switch {
		case err == nil:
			r.closeEpisode()
			r.in.start += n
			r.lastInstr = e.Instr
			r.events++
			return e, nil
		case err == errShortRecord:
			ferr := r.in.fill()
			if ferr == nil {
				continue
			}
			if ferr != io.EOF {
				return Event{}, ferr
			}
			// The stream ended inside this record. If we were already
			// resyncing, keep sliding: a shorter record might still
			// decode from a later start. Otherwise this is the torn
			// tail: drop the remainder in one accounted bite.
			rest := r.in.end - r.in.start
			if r.inSkip && rest > 0 {
				r.skipByte()
				continue
			}
			if rest > 0 {
				r.drops.TornTail++
				r.drops.BytesDropped += uint64(rest)
				r.in.start = r.in.end
			}
			r.closeEpisode()
			return Event{}, io.EOF
		default:
			// Corrupt bytes at the window start: resync one byte at a
			// time. Progress is guaranteed — each attempt consumes a
			// byte — so recovery terminates on any input.
			r.skipByte()
		}
	}
}

// ReadAll decodes the remainder of the stream with recovery.
func (r *RecoveringReader) ReadAll() ([]Event, error) {
	var events []Event
	for {
		e, err := r.Read()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}
