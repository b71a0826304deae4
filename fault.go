package dtbgc

import (
	"io"

	"github.com/dtbgc/dtbgc/internal/fault"
)

// Fault-injection facade: deterministic scheduled faults for testing
// how a replay pipeline behaves when its I/O misbehaves. See
// internal/fault for the model; examples/faultinjection walks through
// composing it with RecoveringSource and ReplayAllResumable.

// FaultPlan is a schedule of deterministic faults shared by the
// wrappers derived from it. A nil *FaultPlan injects nothing, so call
// sites can thread an optional -inject flag unconditionally.
type FaultPlan = fault.Plan

// ErrInjected is the sentinel wrapped by every injected failure;
// distinguish scheduled faults from real ones with errors.Is.
var ErrInjected = fault.ErrInjected

// ParseFaultSpec parses the -inject grammar ("read-err@4096,close-err")
// into a plan. See internal/fault.ParseSpec for the grammar.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return fault.ParseSpec(spec) }

// FaultReader wraps r with the plan's read-side faults (read errors
// and truncation at exact byte offsets).
func FaultReader(p *FaultPlan, r io.Reader) io.Reader { return p.Reader(r) }

// FaultWriter wraps w with the plan's write-side faults (write/close
// errors, short writes). The returned writer's Close applies only the
// injected close fault; the underlying writer stays the caller's to
// close.
func FaultWriter(p *FaultPlan, w io.Writer) io.WriteCloser { return p.Writer(w) }

// FaultSource wraps an event source with the plan's event-indexed
// faults: a source error after N events, or an injected cancellation
// (cancel is invoked at the scheduled event; nil is fine when no
// cancel fault is scheduled).
func FaultSource(p *FaultPlan, src EventSource, cancel func()) EventSource {
	return p.Source(src, cancel)
}
