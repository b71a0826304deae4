// Package workload generates synthetic allocation traces calibrated to
// the six program runs of the paper's evaluation (GHOST ×2, ESPRESSO
// ×2, SIS, CFRAC — Tables 5 and 6).
//
// The original experiments replayed QPT-captured malloc/free traces of
// four C programs. Those traces no longer exist, so each profile here
// reproduces the statistics the collectors actually react to: total
// allocation volume, allocation rate (execution time), the live-byte
// curve (mean and maximum), and the object-lifetime mixture that
// creates each program's characteristic behaviour — SIS retaining most
// of what it allocates, CFRAC retaining almost nothing, GHOST and
// ESPRESSO in between with the medium-lived components that make
// tenuring policy matter.
//
// A profile is a byte-weighted mixture of lifetime classes:
//
//   - permanent storage, accumulated linearly over the run (a ramp);
//   - exponentially distributed lifetimes with a class-specific mean,
//     measured on the allocation clock (bytes allocated after birth).
//
// Object sizes are log-normal around the profile mean, clamped to a
// sane range. Generation is fully deterministic for a given profile.
package workload

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// Class is one component of a lifetime mixture.
type Class struct {
	// Fraction of allocated bytes drawn from this class. Fractions in
	// a profile must sum to 1 within a small tolerance.
	Fraction float64
	// MeanLife is the class's mean lifetime in bytes of subsequent
	// allocation. Ignored when Permanent or DieAtPhaseEnd is set.
	MeanLife float64
	// Permanent objects are never freed.
	Permanent bool
	// DieAtPhaseEnd objects live until the end of the program phase
	// they were allocated in (plus a small exponential jitter). This
	// models pass-local data — Espresso's cube lists live for one
	// expand/irredundant/reduce pass and die together at its end,
	// which is precisely the pattern that strands tenured garbage
	// under Feedback Mediation. Requires Profile.PhaseBytes > 0.
	DieAtPhaseEnd bool
}

// Profile describes one synthetic program.
type Profile struct {
	Name        string
	Description string
	SourceLines int     // Table 6 metadata: lines of C source
	ExecSeconds float64 // Table 6: execution time on the 10 MIPS model
	TotalBytes  uint64  // Table 6: total allocation
	MeanObject  float64 // mean object size in bytes
	SigmaObject float64 // log-normal sigma for sizes
	Seed        uint64
	// PhaseBytes divides the run into fixed-length program phases on
	// the allocation clock; classes with DieAtPhaseEnd key off it.
	// Zero means no phase structure.
	PhaseBytes uint64
	Classes    []Class
}

// Validate checks profile consistency. Every float field it reads
// must be finite: each range check is written so that NaN fails it.
func (p Profile) Validate() error {
	if p.TotalBytes == 0 {
		return fmt.Errorf("workload %s: zero TotalBytes", p.Name)
	}
	if !(p.ExecSeconds > 0) || math.IsInf(p.ExecSeconds, 1) {
		return fmt.Errorf("workload %s: ExecSeconds %v is not positive and finite", p.Name, p.ExecSeconds)
	}
	if !(p.MeanObject >= 16) || math.IsInf(p.MeanObject, 1) {
		return fmt.Errorf("workload %s: MeanObject %v too small or not finite", p.Name, p.MeanObject)
	}
	if math.IsNaN(p.SigmaObject) || math.IsInf(p.SigmaObject, 0) {
		return fmt.Errorf("workload %s: SigmaObject %v not finite", p.Name, p.SigmaObject)
	}
	if len(p.Classes) == 0 {
		return fmt.Errorf("workload %s: no lifetime classes", p.Name)
	}
	sum := 0.0
	for i, c := range p.Classes {
		if !(c.Fraction >= 0) || math.IsInf(c.Fraction, 1) {
			return fmt.Errorf("workload %s: class %d fraction %v is negative or not finite", p.Name, i, c.Fraction)
		}
		if c.Permanent && c.DieAtPhaseEnd {
			return fmt.Errorf("workload %s: class %d both permanent and phase-bound", p.Name, i)
		}
		if c.DieAtPhaseEnd && p.PhaseBytes == 0 {
			return fmt.Errorf("workload %s: class %d dies at phase end but PhaseBytes is 0", p.Name, i)
		}
		if !c.Permanent && !c.DieAtPhaseEnd && (!(c.MeanLife > 0) || math.IsInf(c.MeanLife, 1)) {
			return fmt.Errorf("workload %s: class %d lifetime %v is not positive and finite", p.Name, i, c.MeanLife)
		}
		sum += c.Fraction
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("workload %s: class fractions sum to %v, want 1", p.Name, sum)
	}
	return nil
}

// Scale returns a copy with total allocation (and thus run length)
// multiplied by f, preserving rates and the lifetime mixture. Useful
// for fast tests. Lifetimes are unchanged: they are already expressed
// on the allocation clock. f must be positive: Scale panics on zero, a
// negative f or NaN, and an infinite f leaves ExecSeconds infinite,
// which Validate rejects.
func (p Profile) Scale(f float64) Profile {
	if !(f > 0) {
		panic("workload: Scale requires f > 0")
	}
	q := p
	q.TotalBytes = uint64(float64(p.TotalBytes) * f)
	q.ExecSeconds = p.ExecSeconds * f
	// Phases are program structure (passes over the input), so a
	// shorter run has proportionally shorter passes.
	q.PhaseBytes = uint64(float64(p.PhaseBytes) * f)
	q.Classes = append([]Class(nil), p.Classes...)
	return q
}

// death is a scheduled free on the allocation clock.
type death struct {
	clock uint64 // allocation-clock time of death
	id    trace.ObjectID
}

// deathHeap is a binary min-heap of scheduled deaths ordered by clock.
// push and pop are container/heap's Push and Pop specialised to death:
// the same sift-up and sift-down, comparison for comparison, so deaths
// with equal clocks still pop in exactly the order container/heap gave
// them and every generated trace is unchanged. The typed form does not
// box each death into an interface, which cost about one allocation
// per generated event.
type deathHeap []death

// push adds d: container/heap's Push, i.e. append then sift up.
func (h *deathHeap) push(d death) {
	*h = append(*h, d)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].clock < s[i].clock) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the earliest death: container/heap's Pop,
// which swaps the root to the end and sifts the new root down over the
// first n elements. The element being sifted is always the old last
// one, x, so instead of swapping it down level by level pop moves a
// hole: each level compares the same pair container/heap compares
// (right child before left, then the smaller child against x) and
// copies the child up, and x is stored once where the hole stops. The
// smaller child is picked by arithmetic on the comparison, not a
// branch, since which one wins is a coin toss on random clocks.
func (h *deathHeap) pop() death {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n {
			j += b2i(s[j+1].clock < s[j].clock) // right child on a strict win
		}
		if !(s[j].clock < x.clock) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set,
// not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Generate produces the profile's full event trace deterministically.
// It is a thin collector over GenerateTo; replay paths that do not
// need the slice (the evaluation engine, streaming simulation) should
// read a Generator instead, so paper-scale traces never materialize.
func (p Profile) Generate() ([]trace.Event, error) {
	// Rough capacity estimate: allocs + frees.
	estObjects := int(float64(p.TotalBytes)/math.Max(p.MeanObject, 1)) + 16
	events := make([]trace.Event, 0, 2*estObjects)
	err := p.GenerateTo(func(e trace.Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return events, nil
}

// GenerateTo streams the profile's event trace, in order, to emit —
// one event at a time, so the trace never exists in memory at once.
// The sequence is identical to Generate's and to a Generator's for
// the same profile: GenerateTo reads a Generator in small batches.
// Generation stops at the first emit error, which is returned
// unchanged (wrapped errors pass errors.Is through).
func (p Profile) GenerateTo(emit func(trace.Event) error) error {
	g, err := p.Generator()
	if err != nil {
		return err
	}
	var buf [128]trace.Event
	for {
		n, err := g.ReadBatch(buf[:])
		for _, e := range buf[:n] {
			if eerr := emit(e); eerr != nil {
				return eerr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Generator produces a profile's event trace in batches, in place: the
// batch form of GenerateTo, which the replay engine reads the way it
// reads a trace decoder (see trace.Reader.ReadBatch). One loop serves
// both; GenerateTo and Generate read a Generator.
//
// The trace is a sequence of rounds, one per allocation while the
// allocation clock is below TotalBytes: the frees due by the clock,
// then at most one phase mark, then the allocation, whose class draw
// schedules its death. Once the clock reaches TotalBytes the frees due
// by then close the trace. A Generator keeps its place between batches
// (the clock, the death heap, whether this round's mark check is
// done), so batch boundaries can fall anywhere and the sequence never
// depends on them.
//
// Only allocations draw random numbers: the size's two uniforms, the
// class's one, and one exponential unless the class is permanent. So
// a Generator makes the draws of its next drawAhead allocations in one
// loop, in allocation order, before it needs them (see refill); the
// stream and every value drawn are the same as drawing each allocation
// in its round, and the draws left over when the trace ends are never
// used.
type Generator struct {
	p            Profile
	r            *xrand.Rand
	cum          []float64 // class selection thresholds
	mu, sigma    float64   // log-normal size parameters
	instrPerByte float64

	clock     uint64 // bytes allocated so far
	nextID    trace.ObjectID
	deaths    deathHeap
	nextPhase uint64
	marked    bool // this round's phase-mark check is done
	ended     bool

	// draws[drawAhead-left:] are the draws of the next allocations.
	draws [drawAhead]draw
	left  int
}

// drawAhead is how many allocations' draws a Generator makes at once.
const drawAhead = 128

// draw is one allocation's draws: its size, which way its death is
// scheduled, and the delay that schedule adds (none for a permanent
// object).
type draw struct {
	size  uint64
	delay uint64
	fate  fate
}

// fate is how an allocation's death is scheduled.
type fate uint8

const (
	permanent  fate = iota // never freed
	afterLife              // delay bytes of allocation after its birth
	atPhaseEnd             // delay bytes after the end of its phase
)

// Generator validates the profile and returns a Generator at the
// start of its trace.
func (p Profile) Generator() (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:         p,
		r:         xrand.New(p.Seed),
		cum:       make([]float64, len(p.Classes)),
		nextID:    1,
		nextPhase: p.PhaseBytes, // zero: no phase structure
	}
	acc := 0.0
	for i, c := range p.Classes {
		acc += c.Fraction
		g.cum[i] = acc
	}
	// Log-normal size parameters so that E[size] = MeanObject.
	g.sigma = p.SigmaObject
	if g.sigma == 0 { //dtbvet:ignore floatexact -- exact zero is the unset-parameter sentinel; no arithmetic feeds it
		g.sigma = 0.8
	}
	g.mu = math.Log(p.MeanObject) - g.sigma*g.sigma/2
	g.instrPerByte = p.ExecSeconds * 10e6 / float64(p.TotalBytes)
	return g, nil
}

// ReadBatch generates up to len(dst) events into dst and returns how
// many it filled, with trace.Reader.ReadBatch's contract: a short
// count with a nil error means the trace ended mid-batch, and the next
// call returns (0, io.EOF). A Generator never fails otherwise.
//
//dtbvet:hotpath one call per replay batch, generating the whole batch
func (g *Generator) ReadBatch(dst []trace.Event) (int, error) {
	if g.ended {
		return 0, io.EOF
	}
	for n := range dst {
		// Emit any deaths due before the next allocation, or by the
		// end of the run.
		if len(g.deaths) > 0 && g.deaths[0].clock <= g.clock {
			d := g.deaths.pop()
			dst[n] = trace.Free(d.id, g.instrAt(g.clock))
			continue
		}
		// Objects scheduled to die after the end stay live, like a
		// real program exiting.
		if g.clock >= g.p.TotalBytes {
			g.ended = true
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		// Phase boundaries are program quiescent points; mark them so
		// opportunistic scheduling can key off them. The mark lands a
		// little after the boundary, past the death jitter, so the
		// pass-local storage is already dead when a collector reacts.
		if !g.marked {
			g.marked = true
			if g.nextPhase > 0 && g.clock >= g.nextPhase+16*kb {
				dst[n] = trace.Mark("phase", g.instrAt(g.clock))
				g.nextPhase += g.p.PhaseBytes
				continue
			}
		}
		g.marked = false
		if g.left == 0 {
			g.refill()
		}
		d := &g.draws[drawAhead-g.left]
		g.left--
		id := g.nextID
		g.nextID++
		g.clock += d.size
		dst[n] = trace.Alloc(id, d.size, g.instrAt(g.clock))
		switch d.fate {
		case afterLife:
			g.deaths.push(death{clock: g.clock + d.delay, id: id})
		case atPhaseEnd:
			phaseEnd := (g.clock/g.p.PhaseBytes + 1) * g.p.PhaseBytes
			g.deaths.push(death{clock: phaseEnd + d.delay, id: id})
		}
	}
	return len(dst), nil
}

// refill makes the draws of the next drawAhead allocations, each in
// the order its round would: the size, then the class, then the
// lifetime or the phase-end jitter.
//
//dtbvet:hotpath one call per drawAhead generated allocations
func (g *Generator) refill() {
	for i := range g.draws {
		d := &g.draws[i]
		d.size = uint64(max(16, min(8192, g.r.LogNormal(g.mu, g.sigma))))
		u := g.r.Float64()
		ci := 0
		for ci < len(g.cum)-1 && u >= g.cum[ci] {
			ci++
		}
		switch c := &g.p.Classes[ci]; {
		case c.Permanent:
			d.fate = permanent
		case c.DieAtPhaseEnd:
			d.fate, d.delay = atPhaseEnd, uint64(g.r.Exp(4*kb))
		default:
			d.fate, d.delay = afterLife, uint64(g.r.Exp(c.MeanLife))+1
		}
	}
	g.left = drawAhead
}

// instrAt is the instruction count at allocation clock c.
func (g *Generator) instrAt(c uint64) uint64 { return uint64(float64(c) * g.instrPerByte) }

// MustGenerate is Generate for known-good built-in profiles.
//
// Panic contract: it panics when the profile fails validation or
// generation. It exists for the built-in paper profiles and test
// fixtures, whose validity is fixed at compile time; hand-assembled
// or fitted profiles must use Generate and handle the error.
func (p Profile) MustGenerate() []trace.Event {
	events, err := p.Generate()
	if err != nil {
		panic(fmt.Sprintf("workload: MustGenerate(%s): %v — for profiles not known-good at compile time use Generate", p.Name, err))
	}
	return events
}

const (
	kb = 1024
	mb = 1024 * 1024
)

// The six paper runs. Class mixtures are calibrated so the simulated
// LIVE and No-GC rows land near Table 2's, and totals/rates near
// Table 6's; EXPERIMENTS.md records the measured values.

// Ghost1 models GhostScript interpreting a large reference manual.
func Ghost1() Profile {
	return Profile{
		Name:        "GHOST(1)",
		Description: "GhostScript 2.1 interpreting a large reference manual (NODISPLAY)",
		SourceLines: 29500,
		ExecSeconds: 31,
		TotalBytes:  49 * mb,
		MeanObject:  96,
		Seed:        0x6705701,
		Classes: []Class{
			// Interpreter state accumulating for the whole run (fonts,
			// dictionaries), a slowly-dying pool, and fast churn. The
			// mixture is solved from Table 2 (live mean/max 777/1118),
			// Table 3 (Fixed1 median pause ~31 ms => ~15 KB of young
			// survivors per 1 MB scavenge interval) and Table 2's
			// Fixed1-vs-Full gap (~390 KB of storage dying after
			// tenure over the run).
			{Fraction: 0.0139, Permanent: true},
			{Fraction: 0.0150, MeanLife: 29 * 1024 * kb},
			{Fraction: 0.9711, MeanLife: 15 * kb},
		},
	}
}

// Ghost2 models GhostScript interpreting a masters thesis.
func Ghost2() Profile {
	return Profile{
		Name:        "GHOST(2)",
		Description: "GhostScript 2.1 interpreting a masters thesis (NODISPLAY)",
		SourceLines: 29500,
		ExecSeconds: 71,
		TotalBytes:  88 * mb,
		MeanObject:  96,
		Seed:        0x6705702,
		Classes: []Class{
			{Fraction: 0.0172, Permanent: true},
			{Fraction: 0.0115, MeanLife: 48 * 1024 * kb},
			{Fraction: 0.9713, MeanLife: 14 * kb},
		},
	}
}

// Espresso1 models Espresso minimizing a small PLA example.
func Espresso1() Profile {
	return Profile{
		Name:        "ESPRESSO(1)",
		Description: "Espresso 2.3 logic optimization, small release example",
		SourceLines: 15500,
		ExecSeconds: 62,
		TotalBytes:  15 * mb,
		MeanObject:  64,
		Seed:        0xE5941,
		PhaseBytes:  2 * mb,
		Classes: []Class{
			{Fraction: 0.0097, Permanent: true},
			{Fraction: 0.0100, DieAtPhaseEnd: true},
			{Fraction: 0.9803, MeanLife: 6 * kb},
		},
	}
}

// Espresso2 models Espresso on a larger input.
func Espresso2() Profile {
	return Profile{
		Name:        "ESPRESSO(2)",
		Description: "Espresso 2.3 logic optimization, large release example",
		SourceLines: 15500,
		ExecSeconds: 240,
		TotalBytes:  104 * mb,
		MeanObject:  64,
		Seed:        0xE5942,
		PhaseBytes:  4 * mb,
		Classes: []Class{
			// The medium-lived pool (~2.5 MB mean life) is what makes
			// ESPRESSO(2) the paper's showcase: those objects tenure
			// under any pause-limited policy and die soon after, so
			// FeedMed strands them while DtbFM's backward boundary
			// moves recover them (§6.2).
			{Fraction: 0.0020, Permanent: true},
			{Fraction: 0.0200, DieAtPhaseEnd: true},
			{Fraction: 0.9780, MeanLife: 5 * kb},
		},
	}
}

// Sis models SIS verifying a synthesized circuit with random vectors;
// most allocated storage stays live for the whole run.
func Sis() Profile {
	return Profile{
		Name:        "SIS",
		Description: "SIS 1.1 circuit verification (iscas89/s5378.blif, 1024 random vectors)",
		SourceLines: 172000,
		ExecSeconds: 30,
		TotalBytes:  15 * mb,
		MeanObject:  96,
		Seed:        0x515,
		Classes: []Class{
			{Fraction: 0.30, Permanent: true},
			{Fraction: 0.45, MeanLife: 5600 * kb},
			{Fraction: 0.25, MeanLife: 30 * kb},
		},
	}
}

// Cfrac models continued-fraction factoring; almost nothing survives.
func Cfrac() Profile {
	return Profile{
		Name:        "CFRAC",
		Description: "Cfrac factoring a 25-digit product of two primes",
		SourceLines: 6000,
		ExecSeconds: 8,
		TotalBytes:  3 * mb,
		MeanObject:  48,
		Seed:        0xCF8AC,
		Classes: []Class{
			{Fraction: 0.002, Permanent: true},
			{Fraction: 0.998, MeanLife: 8 * kb},
		},
	}
}

// PaperProfiles returns the six evaluation runs in table order.
func PaperProfiles() []Profile {
	return []Profile{Ghost1(), Ghost2(), Espresso1(), Espresso2(), Sis(), Cfrac()}
}

// ByName returns the named profile or an error listing the available
// names. Lookup is case-insensitive and accepts shell-friendly
// aliases: "ghost1", "ghost2", "espresso1", "espresso2", "sis",
// "cfrac".
func ByName(name string) (Profile, error) {
	canon := strings.ToUpper(strings.TrimSpace(name))
	switch canon {
	case "GHOST1":
		canon = "GHOST(1)"
	case "GHOST2":
		canon = "GHOST(2)"
	case "ESPRESSO1":
		canon = "ESPRESSO(1)"
	case "ESPRESSO2":
		canon = "ESPRESSO(2)"
	}
	for _, p := range PaperProfiles() {
		if p.Name == canon {
			return p, nil
		}
	}
	names := make([]string, 0, 6)
	for _, p := range PaperProfiles() {
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q (have %v)", name, names)
}
