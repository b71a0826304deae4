package workload

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range PaperProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	base := Profile{
		Name: "x", ExecSeconds: 1, TotalBytes: mb, MeanObject: 64,
		Classes: []Class{{Fraction: 1, MeanLife: kb}},
	}
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"zero total", func(p *Profile) { p.TotalBytes = 0 }},
		{"zero exec", func(p *Profile) { p.ExecSeconds = 0 }},
		{"tiny objects", func(p *Profile) { p.MeanObject = 4 }},
		{"no classes", func(p *Profile) { p.Classes = nil }},
		{"negative fraction", func(p *Profile) {
			p.Classes = []Class{{Fraction: -0.5, MeanLife: kb}, {Fraction: 1.5, MeanLife: kb}}
		}},
		{"fractions not 1", func(p *Profile) { p.Classes = []Class{{Fraction: 0.5, MeanLife: kb}} }},
		{"zero lifetime", func(p *Profile) { p.Classes = []Class{{Fraction: 1, MeanLife: 0}} }},
		{"phase class without phase", func(p *Profile) {
			p.Classes = []Class{{Fraction: 1, DieAtPhaseEnd: true}}
		}},
		{"permanent and phase", func(p *Profile) {
			p.PhaseBytes = kb
			p.Classes = []Class{{Fraction: 1, Permanent: true, DieAtPhaseEnd: true}}
		}},
	}
	// Every float field fails on NaN and infinities, which a plain
	// x <= 0 or x < 16 comparison lets through.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, []struct {
			name   string
			mutate func(*Profile)
		}{
			{fmt.Sprintf("exec %v", bad), func(p *Profile) { p.ExecSeconds = bad }},
			{fmt.Sprintf("mean object %v", bad), func(p *Profile) { p.MeanObject = bad }},
			{fmt.Sprintf("sigma %v", bad), func(p *Profile) { p.SigmaObject = bad }},
			{fmt.Sprintf("fraction %v", bad), func(p *Profile) { p.Classes[0].Fraction = bad }},
			{fmt.Sprintf("fraction %v beside a valid class", bad), func(p *Profile) {
				p.Classes = []Class{{Fraction: 1, MeanLife: kb}, {Fraction: bad, Permanent: true}}
			}},
			{fmt.Sprintf("lifetime %v", bad), func(p *Profile) { p.Classes[0].MeanLife = bad }},
		}...)
	}
	for _, c := range cases {
		p := base
		p.Classes = append([]Class(nil), base.Classes...)
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid profile accepted", c.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Cfrac().Scale(0.1)
	a, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same profile generated different traces")
	}
}

func TestGeneratedTracesAreWellFormed(t *testing.T) {
	for _, p := range PaperProfiles() {
		p := p.Scale(0.05)
		events, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := trace.Validate(events); err != nil {
			t.Fatalf("%s: invalid trace: %v", p.Name, err)
		}
	}
}

func TestGenerateHitsTotalBytes(t *testing.T) {
	for _, p := range PaperProfiles() {
		p := p.Scale(0.05)
		events, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		s, err := trace.Measure(events)
		if err != nil {
			t.Fatal(err)
		}
		// Total allocation overshoots the target by at most one object.
		if s.TotalBytes < p.TotalBytes || s.TotalBytes > p.TotalBytes+8192 {
			t.Errorf("%s: total %d, want ~%d", p.Name, s.TotalBytes, p.TotalBytes)
		}
	}
}

func TestGenerateExecTimeMatchesProfile(t *testing.T) {
	p := Ghost1().Scale(0.05)
	events := p.MustGenerate()
	res, err := sim.Run(events, sim.Config{Mode: sim.ModeNoGC})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecSeconds < p.ExecSeconds*0.95 || res.ExecSeconds > p.ExecSeconds*1.05 {
		t.Errorf("exec %v s, want ~%v s", res.ExecSeconds, p.ExecSeconds)
	}
}

func TestPermanentObjectsNeverFreed(t *testing.T) {
	p := Profile{
		Name: "perm", ExecSeconds: 1, TotalBytes: 200 * kb, MeanObject: 64,
		Seed:    1,
		Classes: []Class{{Fraction: 1, Permanent: true}},
	}
	events := p.MustGenerate()
	for _, e := range events {
		if e.Kind == trace.KindFree {
			t.Fatal("permanent-only profile emitted a free")
		}
	}
}

func TestShortLivedMostlyFreed(t *testing.T) {
	p := Profile{
		Name: "churn", ExecSeconds: 1, TotalBytes: 500 * kb, MeanObject: 64,
		Seed:    2,
		Classes: []Class{{Fraction: 1, MeanLife: 2 * kb}},
	}
	s, err := trace.Measure(p.MustGenerate())
	if err != nil {
		t.Fatal(err)
	}
	if s.Frees < s.Allocs*9/10 {
		t.Errorf("only %d of %d objects freed; short-lived churn should free nearly all", s.Frees, s.Allocs)
	}
	if s.LiveBytes > s.TotalBytes/10 {
		t.Errorf("live at end %d of %d total", s.LiveBytes, s.TotalBytes)
	}
}

func TestPhaseDeathsClusterAtBoundaries(t *testing.T) {
	p := Profile{
		Name: "phased", ExecSeconds: 1, TotalBytes: 400 * kb, MeanObject: 64,
		Seed: 3, PhaseBytes: 100 * kb,
		Classes: []Class{
			{Fraction: 0.5, DieAtPhaseEnd: true},
			{Fraction: 0.5, MeanLife: kb},
		},
	}
	events := p.MustGenerate()
	// Track the live bytes of the phase class via the oracle: live
	// bytes must crash shortly after each 100 KB boundary.
	res, err := sim.Run(events, sim.Config{Mode: sim.ModeLive, RecordCurve: true})
	if err != nil {
		t.Fatal(err)
	}
	// At ~95% into a phase the phase-class holds ~45 KB; just after
	// the boundary (+ jitter) it should be near zero again.
	peak := res.LiveCurve.At(195 * kb)
	trough := res.LiveCurve.At(130 * kb)
	if peak < 2*trough {
		t.Errorf("no phase sawtooth: peak %v vs trough %v", peak, trough)
	}
}

func TestScale(t *testing.T) {
	p := Ghost1()
	q := p.Scale(0.5)
	if q.TotalBytes != p.TotalBytes/2 {
		t.Errorf("scaled total %d", q.TotalBytes)
	}
	if q.ExecSeconds != p.ExecSeconds/2 {
		t.Errorf("scaled exec %v", q.ExecSeconds)
	}
	// Original must be untouched (classes are copied).
	q.Classes[0].Fraction = 0.999
	if p.Classes[0].Fraction == 0.999 {
		t.Error("Scale aliased the class slice")
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	for _, f := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if v := recover(); v != "workload: Scale requires f > 0" {
					t.Errorf("Scale(%v) recovered %v, want the documented panic", f, v)
				}
			}()
			Ghost1().Scale(f)
		}()
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("SIS")
	if err != nil || p.Name != "SIS" {
		t.Fatalf("ByName(SIS) = %v, %v", p.Name, err)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "GHOST(1)") {
		t.Fatalf("ByName(nope) should list profiles, got %v", err)
	}
}

func TestPaperProfilesOrderAndCount(t *testing.T) {
	ps := PaperProfiles()
	want := []string{"GHOST(1)", "GHOST(2)", "ESPRESSO(1)", "ESPRESSO(2)", "SIS", "CFRAC"}
	if len(ps) != len(want) {
		t.Fatalf("got %d profiles", len(ps))
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("profile %d = %s, want %s", i, p.Name, want[i])
		}
	}
}

// TestCalibrationAgainstPaperTable2 checks the substitution fidelity:
// the oracle live-byte statistics of each synthetic profile must land
// near the paper's LIVE row (Table 2), scaled here to 20% runs for
// test speed, which preserves the steady-state components and scales
// the ramp ones.
func TestCalibrationAgainstPaperTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	// Full-size targets from Table 2 (KB).
	targets := map[string]struct{ mean, max float64 }{
		"GHOST(1)":    {777, 1118},
		"GHOST(2)":    {1323, 2080},
		"ESPRESSO(1)": {89, 173},
		"ESPRESSO(2)": {160, 269},
		"SIS":         {4197, 6423},
		"CFRAC":       {10, 21},
	}
	for _, p := range PaperProfiles() {
		res, err := sim.Run(p.MustGenerate(), sim.Config{Mode: sim.ModeLive})
		if err != nil {
			t.Fatal(err)
		}
		tg := targets[p.Name]
		mean := res.MemMeanBytes / 1024
		max := res.MemMaxBytes / 1024
		if mean < tg.mean*0.6 || mean > tg.mean*1.4 {
			t.Errorf("%s: live mean %0.f KB, paper %0.f KB (outside ±40%%)", p.Name, mean, tg.mean)
		}
		if max < tg.max*0.6 || max > tg.max*1.4 {
			t.Errorf("%s: live max %0.f KB, paper %0.f KB (outside ±40%%)", p.Name, max, tg.max)
		}
	}
}

func BenchmarkGenerateGhost1Scaled(b *testing.B) {
	p := Ghost1().Scale(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestByNameAliases(t *testing.T) {
	cases := map[string]string{
		"ghost1": "GHOST(1)", "GHOST2": "GHOST(2)",
		"espresso1": "ESPRESSO(1)", "Espresso2": "ESPRESSO(2)",
		"sis": "SIS", "cfrac": "CFRAC", " CFRAC ": "CFRAC",
		"GHOST(1)": "GHOST(1)",
	}
	for in, want := range cases {
		p, err := ByName(in)
		if err != nil {
			t.Errorf("ByName(%q): %v", in, err)
			continue
		}
		if p.Name != want {
			t.Errorf("ByName(%q) = %s, want %s", in, p.Name, want)
		}
	}
}

// TestGenerateToMatchesGenerate pins the streaming emitter to the
// collecting wrapper: same profile, same event sequence, event for
// event. Every consumer of GenerateTo (the replay engine) depends on
// this equivalence.
func TestGenerateToMatchesGenerate(t *testing.T) {
	for _, p := range PaperProfiles() {
		p := p.Scale(0.01)
		want, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: Generate: %v", p.Name, err)
		}
		var got []trace.Event
		if err := p.GenerateTo(func(e trace.Event) error {
			got = append(got, e)
			return nil
		}); err != nil {
			t.Fatalf("%s: GenerateTo: %v", p.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed sequence differs from collected sequence (%d vs %d events)",
				p.Name, len(got), len(want))
		}
	}
}

// TestGenerateToStopsOnEmitError checks the emitter aborts at the
// first emit failure and returns the consumer's error unchanged.
func TestGenerateToStopsOnEmitError(t *testing.T) {
	p := Cfrac().Scale(0.01)
	stop := errors.New("consumer is full")
	n := 0
	err := p.GenerateTo(func(trace.Event) error {
		n++
		if n == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("GenerateTo error = %v, want the emit error unchanged", err)
	}
	if n != 10 {
		t.Errorf("emitter produced %d events after the error, want exactly 10 calls", n)
	}
}

// TestGenerateToValidates checks the streaming path rejects invalid
// profiles before emitting anything, like Generate does.
func TestGenerateToValidates(t *testing.T) {
	p := Profile{Name: "bad"} // fails Validate: zero TotalBytes etc.
	emitted := 0
	err := p.GenerateTo(func(trace.Event) error { emitted++; return nil })
	if err == nil {
		t.Fatal("GenerateTo accepted an invalid profile")
	}
	if emitted != 0 {
		t.Errorf("GenerateTo emitted %d events from an invalid profile", emitted)
	}
}

// MustGenerate's panic contract: a profile that is not known-good at
// compile time must crash with a message naming the profile and the
// error-returning alternative, not with a bare wrapped error.
func TestMustGeneratePanicContract(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustGenerate on an invalid profile did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "broken") {
			t.Errorf("panic %q does not name the profile", msg)
		}
		if !strings.Contains(msg, "use Generate") {
			t.Errorf("panic %q does not point at Generate", msg)
		}
	}()
	Profile{Name: "broken"}.MustGenerate() // zero TotalBytes fails validation
}

// And the positive side: the built-in profiles it exists for never
// trip it.
func TestMustGenerateTotalOverPaperProfiles(t *testing.T) {
	for _, p := range PaperProfiles() {
		events := p.Scale(0.002).MustGenerate()
		if len(events) == 0 {
			t.Fatalf("%s: MustGenerate returned no events", p.Name)
		}
	}
}
