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
