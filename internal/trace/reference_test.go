package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// refReader is the strict decoder as it was before Reader decoded from
// a byte window: every varint through binary.ReadUvarint over a
// bufio.Reader, one byte at a time. FuzzReader holds Reader to it
// event for event and error for error.
type refReader struct {
	r         *bufio.Reader
	readHdr   bool
	lastInstr uint64
}

func newRefReader(r io.Reader) *refReader {
	return &refReader{r: bufio.NewReader(r)}
}

func (r *refReader) checkHeader() error {
	if r.readHdr {
		return nil
	}
	r.readHdr = true
	hdr := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: truncated header", ErrBadMagic)
		}
		return err
	}
	for i, b := range binaryMagic {
		if hdr[i] != b {
			return ErrBadMagic
		}
	}
	return nil
}

func (r *refReader) Read() (Event, error) {
	if err := r.checkHeader(); err != nil {
		return Event{}, err
	}
	kb, err := r.r.ReadByte()
	if err != nil {
		return Event{}, err // io.EOF here is the clean end
	}
	e := Event{Kind: Kind(kb)}
	switch e.Kind {
	case KindAlloc:
		id, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		size, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		e.ID, e.Size = ObjectID(id), size
	case KindFree:
		id, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		e.ID = ObjectID(id)
	case KindPtrWrite:
		id, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		field, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		target, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		e.ID, e.Field, e.Target = ObjectID(id), uint32(field), ObjectID(target)
	case KindMark:
		n, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		const maxLabel = 1 << 20
		if n > maxLabel {
			return Event{}, fmt.Errorf("trace: mark label length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.r, buf); err != nil {
			return Event{}, refUnexpectedEOF(err)
		}
		e.Label = string(buf)
	default:
		return Event{}, fmt.Errorf("trace: unknown event kind byte %d", kb)
	}
	d, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, refUnexpectedEOF(err)
	}
	r.lastInstr += d
	e.Instr = r.lastInstr
	return e, nil
}

func refUnexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// refRecoveringReader is the recovering decoder as it was before
// recovery became a mode of Reader.ReadBatch: one event per Read call,
// through the same byte window and record decoder, with the resync and
// the torn-tail drop written out event by event.
// FuzzRecoveringReader holds the recovering ReadBatch to it event for
// event, drop for drop and error for error.
type refRecoveringReader struct {
	in        byteWindow
	lastInstr uint64
	drops     DropStats
	inSkip    bool // mid resync-episode
}

func newRefRecoveringReader(r io.Reader) *refRecoveringReader {
	return &refRecoveringReader{in: byteWindow{r: r}}
}

func (r *refRecoveringReader) skipByte() {
	r.inSkip = true
	r.drops.BytesDropped++
	r.in.start++
}

func (r *refRecoveringReader) closeEpisode() {
	if r.inSkip {
		r.inSkip = false
		r.drops.CorruptRecords++
	}
}

// Read decodes the next recoverable event, or returns io.EOF at the
// end of the stream, when drops is final.
func (r *refRecoveringReader) Read() (Event, error) {
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
			// time.
			r.skipByte()
		}
	}
}
