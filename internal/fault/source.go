package fault

import (
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Source wraps an event source with the plan's event-indexed faults:
// SourceErr fails the stream after its event offset, and Cancel
// invokes cancel there instead — modelling an interrupt storm, with
// the stream itself continuing until the consumer's next context
// check aborts it. A nil cancel is allowed when no Cancel fault is
// scheduled.
func (p *Plan) Source(src engine.Source, cancel func()) engine.Source {
	if p == nil {
		return src
	}
	return func(emit func(trace.Event) error) error {
		n := uint64(0)
		return src(func(e trace.Event) error {
			if f := p.next(SourceErr, Cancel); f != nil && n >= f.Offset {
				p.fire(f)
				if f.Kind == Cancel {
					cancel()
				} else {
					return injected(f.Fault)
				}
			}
			n++
			return emit(e)
		})
	}
}
