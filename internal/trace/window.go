package trace

import (
	"fmt"
	"sort"
)

// Window extracts the sub-trace covering the instruction interval
// [from, to] as a self-contained, well-formed trace:
//
//   - objects allocated before the window and still live at its start
//     are re-introduced with synthetic allocations at instant `from`,
//     in their original allocation order (so relative ages — the only
//     thing boundary policies consume — are preserved);
//   - events inside the window are kept, except pointer stores that
//     reference objects absent from the window;
//   - frees of objects that died before the window are dropped.
//
// Windowing lets long captures be studied piecewise: the warm-up of a
// trace can be skipped, or one program phase isolated, while the
// result still passes Validate. The input must pass Validate too: a
// trace that does not fails with Validate's error.
func Window(events []Event, from, to uint64) ([]Event, error) {
	if to < from {
		return nil, fmt.Errorf("trace: Window with to < from")
	}
	if err := Validate(events); err != nil {
		return nil, err
	}

	// Pass 1: liveness at the window start.
	type preObj struct {
		id    ObjectID
		size  uint64
		order int
	}
	pre := make(map[ObjectID]preObj)
	order := 0
	i := 0
	for ; i < len(events) && events[i].Instr < from; i++ {
		e := events[i]
		switch e.Kind {
		case KindAlloc:
			pre[e.ID] = preObj{id: e.ID, size: e.Size, order: order}
			order++
		case KindFree:
			delete(pre, e.ID)
		case KindPtrWrite, KindMark:
			// Neither affects pre-window liveness.
		}
	}

	// Synthetic allocations for the survivors, oldest first.
	survivors := make([]preObj, 0, len(pre))
	for _, o := range pre { //dtbvet:ignore determinism -- survivors are sorted by allocation order below
		survivors = append(survivors, o)
	}
	sort.Slice(survivors, func(a, b int) bool { return survivors[a].order < survivors[b].order })

	out := make([]Event, 0, len(survivors)+len(events)-i)
	inWindow := make(map[ObjectID]bool, len(survivors))
	for _, o := range survivors {
		out = append(out, Alloc(o.id, o.size, from))
		inWindow[o.id] = true
	}

	// Pass 2: the window body.
	for ; i < len(events) && events[i].Instr <= to; i++ {
		e := events[i]
		switch e.Kind {
		case KindAlloc:
			inWindow[e.ID] = true
			out = append(out, e)
		case KindFree:
			if inWindow[e.ID] {
				out = append(out, e)
			}
		case KindPtrWrite:
			if inWindow[e.ID] && (e.Target == NilObject || inWindow[e.Target]) {
				out = append(out, e)
			}
		case KindMark:
			out = append(out, e)
		}
	}
	return out, nil
}
