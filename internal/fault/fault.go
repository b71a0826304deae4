// Package fault is the deterministic fault-injection harness: it
// wraps the seams the simulator's data flows through — trace readers,
// telemetry and output writers, event sources, context cancellation —
// with faults scheduled at exact byte or event offsets, so every
// adverse-I/O code path can be exercised on purpose instead of waiting
// for a full disk to find it in production.
//
// The paper's pitch is a collector that honors a user constraint under
// adverse, shifting conditions; this package is the reproduction's
// answer for the harness itself. Every fault is scheduled, not random:
// a Plan parsed from "trunc@4096,close-err" injects exactly those
// faults at exactly those offsets, every run, so a failing scenario is
// a reproducible test case by construction. Seeded *schedules* come
// from deriving offsets deterministically (see RandomPlan) — the
// randomness lives in the schedule derivation, never in the injection.
//
// Faults are one-shot: each fires exactly once and is then spent.
// That models the transient failure the checkpoint/resume layer
// (internal/engine) exists for — re-wrapping a reopened file with the
// same Plan yields a clean second pass, so "retry after a read error"
// is testable end to end. The one exception is ShortWrite, which caps
// every Write it sees (a persistently misbehaving writer, not a
// transient event).
//
// SelfTest is the harness's own mutation-style proof: for every fault
// class it asserts the production paths either recover with an exact,
// accounted drop or fail loudly with an error — a fault class that can
// pass silently fails the self-test, so a green run is trustworthy.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// ErrInjected is the sentinel wrapped by every injected failure, so
// tests and callers can tell a scheduled fault from a real one with
// errors.Is.
var ErrInjected = errors.New("fault: injected")

// Kind enumerates the fault classes the harness injects.
type Kind uint8

const (
	// ReadErr fails the wrapped reader with an injected error once its
	// byte offset is reached — a dying disk or dropped connection
	// mid-stream.
	ReadErr Kind = iota
	// Truncate ends the wrapped reader with a clean EOF at the byte
	// offset — a torn file tail: the bytes past the offset never made
	// it to storage, and nothing in the stream says so.
	Truncate
	// WriteErr accepts bytes up to the offset and then fails the write
	// that crosses it (short write + error) — ENOSPC mid-stream.
	WriteErr
	// CloseErr lets every write succeed but fails Close — ENOSPC
	// surfacing only at the final flush, the classic cause of a
	// zero-exit tool leaving a silently truncated output file.
	CloseErr
	// ShortWrite caps every Write at Offset bytes while returning a nil
	// error — a contract-violating writer; correct consumers (bufio)
	// must surface io.ErrShortWrite rather than lose the tail.
	ShortWrite
	// SourceErr fails an event source after Offset events — a
	// generator or decoder dying mid-replay.
	SourceErr
	// Cancel invokes the run's cancel function after Offset events —
	// the Ctrl-C / deadline storm; the replay must abort with the
	// context's error, never a partial result.
	Cancel
)

// kindNames maps the spec-grammar names to kinds, in spec order.
var kindNames = []struct {
	name string
	kind Kind
}{
	{"read-err", ReadErr},
	{"trunc", Truncate},
	{"write-err", WriteErr},
	{"close-err", CloseErr},
	{"short-write", ShortWrite},
	{"source-err", SourceErr},
	{"cancel", Cancel},
}

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	for _, kn := range kindNames {
		if kn.kind == k {
			return kn.name
		}
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fault is one scheduled fault: a class and the offset at which it
// fires. The offset counts bytes for the reader/writer classes and
// events for SourceErr and Cancel; for ShortWrite it is the per-call
// byte cap, and for CloseErr it is ignored.
type Fault struct {
	Kind   Kind
	Offset uint64
}

// String renders the fault in spec-grammar form.
func (f Fault) String() string {
	if f.Kind == CloseErr {
		return f.Kind.String()
	}
	return fmt.Sprintf("%s@%d", f.Kind, f.Offset)
}

// fault is the Plan's internal, fire-once state for one Fault.
type fault struct {
	Fault
	fired bool
}

// Plan is a schedule of faults shared by every wrapper derived from
// it. Wrappers consult the plan on each operation; a fault fires at
// most once (except ShortWrite, which persists). A nil *Plan is valid
// everywhere and injects nothing, so call sites can thread an optional
// -inject flag without branching.
//
// The plan is safe for concurrent use: concurrent runs can share one
// plan, and each scheduled fault still fires exactly once.
type Plan struct {
	mu     sync.Mutex
	faults []*fault
}

// NewPlan returns a plan scheduling the given faults.
func NewPlan(faults ...Fault) *Plan {
	p := &Plan{}
	for _, f := range faults {
		p.faults = append(p.faults, &fault{Fault: f})
	}
	return p
}

// ParseSpec parses the -inject grammar: comma-separated kind@offset
// entries ("read-err@4096,close-err"). Offsets take an optional k or m
// suffix (binary: 4k = 4096). CloseErr needs no offset; ShortWrite's
// offset is the per-call cap and must be positive.
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, offStr, hasOff := strings.Cut(entry, "@")
		var kind Kind
		found := false
		for _, kn := range kindNames {
			if kn.name == name {
				kind, found = kn.kind, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown fault %q in %q (have %s)", name, spec, specKinds())
		}
		var off uint64
		if hasOff {
			var err error
			off, err = parseOffset(offStr)
			if err != nil {
				return nil, fmt.Errorf("fault: bad offset in %q: %v", entry, err)
			}
		} else if kind != CloseErr {
			return nil, fmt.Errorf("fault: %q needs an @offset", entry)
		}
		if kind == ShortWrite && off == 0 {
			return nil, fmt.Errorf("fault: short-write cap must be positive in %q", entry)
		}
		p.faults = append(p.faults, &fault{Fault: Fault{Kind: kind, Offset: off}})
	}
	if len(p.faults) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", spec)
	}
	return p, nil
}

// parseOffset parses a decimal offset with an optional k/m binary
// suffix. An offset past 2^64-1 is out of range, suffix or not.
func parseOffset(s string) (uint64, error) {
	mult, digits := uint64(1), s
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, digits = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, digits = 1024*1024, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, err
	}
	if n > math.MaxUint64/mult {
		return 0, &strconv.NumError{Func: "ParseUint", Num: s, Err: strconv.ErrRange}
	}
	return n * mult, nil
}

// specKinds lists the grammar's kind names for error messages.
func specKinds() string {
	names := make([]string, len(kindNames))
	for i, kn := range kindNames {
		names[i] = kn.name
	}
	return strings.Join(names, ", ")
}

// String renders the plan back into spec-grammar form.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := make([]string, len(p.faults))
	for i, f := range p.faults {
		parts[i] = f.Fault.String()
	}
	return strings.Join(parts, ",")
}

// Unfired returns the scheduled faults that have not fired yet, in
// schedule order. A fault self-test uses it to prove every scheduled
// fault was actually exercised.
func (p *Plan) Unfired() []Fault {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Fault
	for _, f := range p.faults {
		if !f.fired {
			out = append(out, f.Fault)
		}
	}
	return out
}

// next returns the unfired fault of one of the given kinds with the
// smallest offset, or nil. The caller fires it via fire.
func (p *Plan) next(kinds ...Kind) *fault {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *fault
	for _, f := range p.faults {
		if f.fired {
			continue
		}
		for _, k := range kinds {
			if f.Kind == k && (best == nil || f.Offset < best.Offset) {
				best = f
			}
		}
	}
	return best
}

// fire marks the fault spent. ShortWrite is never spent: a
// misbehaving writer misbehaves on every call.
func (p *Plan) fire(f *fault) {
	if f.Kind == ShortWrite {
		return
	}
	p.mu.Lock()
	f.fired = true
	p.mu.Unlock()
}

// injected builds the error an injected fault surfaces as.
func injected(f Fault) error {
	return fmt.Errorf("%w: %s", ErrInjected, f)
}

// RandomPlan derives a deterministic schedule of one fault of the
// given kind from a seed and a size hint (the stream's byte or event
// length): same seed, same schedule. It is how sweep harnesses explore
// offsets without hand-picking them; the offset lands in [1, sizeHint)
// so the fault always fires mid-stream.
func RandomPlan(seed uint64, kind Kind, sizeHint uint64) *Plan {
	if sizeHint < 2 {
		sizeHint = 2
	}
	// SplitMix64: a full-period mixer, so consecutive seeds give
	// well-spread offsets without any shared state.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	off := 1 + z%(sizeHint-1)
	if kind == CloseErr {
		off = 0
	}
	return NewPlan(Fault{Kind: kind, Offset: off})
}
