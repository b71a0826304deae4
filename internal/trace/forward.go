package trace

// Forward-pointer analysis for §4.2 of the paper: the dynamic
// threatening boundary collector must remember ALL forward-in-time
// pointers (stores where the source object is older than the new
// referent), not just generation-crossing ones, and the design rests
// on the assumption that "such pointers are a small fraction of all
// pointers". ForwardStats measures that fraction on a real trace.

// ForwardStats summarizes the pointer stores of a trace.
type ForwardStats struct {
	Stores   int // total pointer stores
	NilStore int // stores of the nil reference
	Forward  int // source older than referent (must be remembered)
	Backward int // source younger than referent
	SelfSame int // source and referent allocated at the same instant
}

// ForwardFraction returns Forward / non-nil stores (0 when there were
// none).
func (f ForwardStats) ForwardFraction() float64 {
	n := f.Stores - f.NilStore
	if n == 0 {
		return 0
	}
	return float64(f.Forward) / float64(n)
}

// MeasureForward computes forward-pointer statistics for a trace,
// which must pass Validate: a trace that does not fails with
// Validate's error. Object age is position in allocation order (the
// allocation clock), matching the collector's notion of birth time.
func MeasureForward(events []Event) (ForwardStats, error) {
	var fs ForwardStats
	if err := Validate(events); err != nil {
		return fs, err
	}
	birth := make(map[ObjectID]int)
	seq := 0
	for _, e := range events {
		switch e.Kind {
		case KindAlloc:
			seq++
			birth[e.ID] = seq
		case KindFree:
			delete(birth, e.ID)
		case KindPtrWrite:
			fs.Stores++
			if e.Target == NilObject {
				fs.NilStore++
				continue
			}
			switch bs, bt := birth[e.ID], birth[e.Target]; {
			case bs < bt:
				fs.Forward++
			case bs > bt:
				fs.Backward++
			default:
				fs.SelfSame++
			}
		case KindMark:
			// Annotations carry no pointers.
		}
	}
	return fs, nil
}
