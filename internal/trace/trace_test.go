package trace

import (
	"strings"
	"testing"
)

func TestEventConstructors(t *testing.T) {
	a := Alloc(3, 64, 100)
	if a.Kind != KindAlloc || a.ID != 3 || a.Size != 64 || a.Instr != 100 {
		t.Errorf("Alloc fields wrong: %+v", a)
	}
	f := Free(3, 200)
	if f.Kind != KindFree || f.ID != 3 || f.Instr != 200 {
		t.Errorf("Free fields wrong: %+v", f)
	}
	p := PtrWrite(1, 2, 3, 300)
	if p.Kind != KindPtrWrite || p.ID != 1 || p.Field != 2 || p.Target != 3 {
		t.Errorf("PtrWrite fields wrong: %+v", p)
	}
	m := Mark("phase", 400)
	if m.Kind != KindMark || m.Label != "phase" {
		t.Errorf("Mark fields wrong: %+v", m)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindAlloc: "a", KindFree: "f", KindPtrWrite: "p", KindMark: "m"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should render its number")
	}
}

func TestStatsSimpleLifecycle(t *testing.T) {
	events := []Event{
		Alloc(1, 100, 0),
		Alloc(2, 50, 10),
		Free(1, 20),
		Alloc(3, 25, 30),
	}
	s, err := Measure(events)
	if err != nil {
		t.Fatal(err)
	}
	if s.Allocs != 3 || s.Frees != 1 {
		t.Errorf("counts: %+v", s)
	}
	if s.TotalBytes != 175 {
		t.Errorf("TotalBytes = %d, want 175", s.TotalBytes)
	}
	if s.LiveBytes != 75 {
		t.Errorf("LiveBytes = %d, want 75", s.LiveBytes)
	}
	if s.MaxLive != 150 {
		t.Errorf("MaxLive = %d, want 150", s.MaxLive)
	}
	if s.LiveObjects != 2 || s.MaxObjects != 2 {
		t.Errorf("objects: %+v", s)
	}
	if s.LastInstr != 30 {
		t.Errorf("LastInstr = %d", s.LastInstr)
	}
}

func TestStatsRejectsDuplicateAlloc(t *testing.T) {
	err := Validate([]Event{Alloc(1, 8, 0), Alloc(1, 8, 1)})
	if err == nil {
		t.Fatal("duplicate alloc accepted")
	}
}

func TestStatsRejectsDoubleFree(t *testing.T) {
	err := Validate([]Event{Alloc(1, 8, 0), Free(1, 1), Free(1, 2)})
	if err == nil {
		t.Fatal("double free accepted")
	}
}

func TestStatsRejectsFreeOfUnknown(t *testing.T) {
	if Validate([]Event{Free(42, 0)}) == nil {
		t.Fatal("free of unknown object accepted")
	}
}

func TestStatsRejectsClockRegression(t *testing.T) {
	err := Validate([]Event{Alloc(1, 8, 10), Alloc(2, 8, 5)})
	if err == nil {
		t.Fatal("clock regression accepted")
	}
}

func TestStatsRejectsNilAlloc(t *testing.T) {
	if Validate([]Event{Alloc(NilObject, 8, 0)}) == nil {
		t.Fatal("allocation of nil id accepted")
	}
}

func TestStatsPtrWriteValidation(t *testing.T) {
	ok := []Event{
		Alloc(1, 8, 0), Alloc(2, 8, 1),
		PtrWrite(1, 0, 2, 2),
		PtrWrite(1, 0, NilObject, 3), // null store is fine
	}
	if err := Validate(ok); err != nil {
		t.Fatalf("valid ptr writes rejected: %v", err)
	}
	bad := []Event{Alloc(1, 8, 0), PtrWrite(1, 0, 99, 1)}
	if Validate(bad) == nil {
		t.Fatal("ptr write to unknown target accepted")
	}
	bad2 := []Event{Alloc(1, 8, 0), Free(1, 1), PtrWrite(1, 0, NilObject, 2)}
	if Validate(bad2) == nil {
		t.Fatal("ptr write into freed object accepted")
	}
}

func TestStatsRejectsUnknownKind(t *testing.T) {
	if Validate([]Event{{Kind: Kind(77)}}) == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestStatsMarksCounted(t *testing.T) {
	s, err := Measure([]Event{Mark("x", 0), Mark("y", 1)})
	if err != nil || s.Marks != 2 {
		t.Fatalf("marks = %d, err = %v", s.Marks, err)
	}
}

// TestWalkersValidateFirst: MeasureForward, MeasureLifetimes and Window
// measure only a trace Validate accepts, and fail any other with
// Validate's own error, event index included.
func TestWalkersValidateFirst(t *testing.T) {
	walkers := []struct {
		name string
		walk func([]Event) error
	}{
		{"MeasureForward", func(ev []Event) error { _, err := MeasureForward(ev); return err }},
		{"MeasureLifetimes", func(ev []Event) error { _, err := MeasureLifetimes(ev); return err }},
		{"Window", func(ev []Event) error { _, err := Window(ev, 2, 100); return err }},
	}
	for _, defect := range []struct {
		events []Event
		want   string
	}{
		{[]Event{Alloc(1, 8, 0), Alloc(2, 8, 1), Alloc(1, 8, 2), PtrWrite(1, 0, 2, 3)}, "event 2: trace: duplicate allocation of object 1"},
		{[]Event{Alloc(1, 8, 0), Alloc(2, 8, 1), Free(2, 2), PtrWrite(1, 0, 2, 3)}, "event 3: trace: pointer store to dead or unknown target 2"},
		{[]Event{Alloc(1, 8, 10), Alloc(2, 8, 5), Free(1, 3)}, "event 1: trace: instruction clock regressed 10 -> 5"},
		{[]Event{Alloc(1, 8, 1), Alloc(1, 16, 2), Free(1, 3)}, "event 1: trace: duplicate allocation of object 1"},
		{[]Event{Alloc(1, 32, 10), Free(1, 20), Alloc(1, 32, 30), Free(1, 40)}, "event 2: trace: duplicate allocation of object 1"},
		{[]Event{Alloc(5, 8, 0), Alloc(1, 8, 1), Free(1, 2), Alloc(1, 8, 3)}, "event 3: trace: duplicate allocation of object 1"},
	} {
		if err := Validate(defect.events); err == nil || err.Error() != defect.want {
			t.Fatalf("Validate(%v) = %v, want %q", defect.events, err, defect.want)
		}
		for _, w := range walkers {
			if err := w.walk(defect.events); err == nil || err.Error() != defect.want {
				t.Errorf("%s(%v) = %v, want %q", w.name, defect.events, err, defect.want)
			}
		}
	}
}

func TestBuilderProducesValidTrace(t *testing.T) {
	b := NewBuilder()
	a := b.Alloc(100)
	b.Advance(10)
	c := b.Alloc(50)
	b.PtrWrite(a, 0, c)
	b.Advance(5)
	b.Free(a)
	b.Mark("done")
	events := b.Events()
	if err := Validate(events); err != nil {
		t.Fatalf("builder produced invalid trace: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Instr != 0 || events[1].Instr != 10 || events[3].Instr != 15 {
		t.Errorf("timestamps wrong: %v", events)
	}
	if b.Live(a) {
		t.Error("freed object reported live")
	}
	if !b.Live(c) {
		t.Error("live object reported dead")
	}
	if len(b.LiveIDs()) != 1 || b.LiveIDs()[0] != c {
		t.Errorf("LiveIDs = %v", b.LiveIDs())
	}
}

func TestBuilderUniqueIDs(t *testing.T) {
	b := NewBuilder()
	seen := make(map[ObjectID]bool)
	for i := 0; i < 1000; i++ {
		id := b.Alloc(8)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		if i%3 == 0 {
			b.Free(id)
		}
	}
}

func TestBuilderFreePanicsOnDead(t *testing.T) {
	b := NewBuilder()
	id := b.Alloc(8)
	b.Free(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double free via builder did not panic")
		}
	}()
	b.Free(id)
}

func TestBuilderNow(t *testing.T) {
	b := NewBuilder()
	if b.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
	b.Advance(7)
	b.Advance(3)
	if b.Now() != 10 {
		t.Fatalf("Now = %d, want 10", b.Now())
	}
}
