// Package sim implements the paper's trace-driven garbage-collection
// simulation (Barrett & Zorn §5): allocation and deallocation events
// drive a model heap, scavenges are triggered at fixed allocation
// intervals, a threatening-boundary policy from internal/core chooses
// what to collect, and the free events serve as the liveness oracle.
//
// The machine model matches the paper's: a CPU executing a fixed
// number of instructions per second and a collector tracing a fixed
// number of bytes per second, so pause times are proportional to bytes
// traced and CPU overhead is total trace time over program run time.
//
// NewFleet owns the collector-independent trace bookkeeping (the
// "tape") and shares it across many runners, so a fan-out replay pays
// for validation and liveness accounting once instead of once per
// collector. A fleet is the only owner of a tape: NewRunner builds a
// fleet of one, fed in lockstep, which is the per-event reference the
// oracle diffs fan-out replays against. Run simulates an in-memory
// trace on such a runner, and RunReader streams events from a decoder
// so arbitrarily long traces simulate in constant memory. Check
// resolves a trace with no runners at all, to find the first defect a
// replay would report.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/vmem"
)

// Machine is the paper's simulated hardware: 10 MIPS, tracing
// 500 kilobytes per second.
type Machine struct {
	MIPS          float64 // millions of instructions per second
	TraceBytesPer float64 // bytes the collector traces per second
}

// PaperMachine returns the machine model used throughout the paper's
// evaluation.
func PaperMachine() Machine {
	return Machine{MIPS: 10, TraceBytesPer: 500 * 1024}
}

// isZero reports whether the machine model was left unset. The bit
// test (not ==) keeps the sentinel exact: struct equality on float
// fields would also match -0 and miss nothing here today, but the
// module-wide rule is that float equality goes through Float64bits.
func (m Machine) isZero() bool {
	return math.Float64bits(m.MIPS) == 0 && math.Float64bits(m.TraceBytesPer) == 0
}

// Validate reports why the machine model is unusable, or nil. Both
// rates divide measurements (Seconds, PauseSeconds), so a zero,
// negative or non-finite rate would silently turn every derived
// metric into Inf or NaN; the zero Machine is exempt because
// Config.withDefaults replaces it with PaperMachine before any
// division happens.
func (m Machine) Validate() error {
	if !(m.MIPS > 0) || math.IsInf(m.MIPS, 0) {
		return fmt.Errorf("sim: Machine.MIPS must be positive and finite, got %v", m.MIPS)
	}
	if !(m.TraceBytesPer > 0) || math.IsInf(m.TraceBytesPer, 0) {
		return fmt.Errorf("sim: Machine.TraceBytesPer must be positive and finite, got %v", m.TraceBytesPer)
	}
	return nil
}

// Seconds converts an instruction count to wall time on this machine.
func (m Machine) Seconds(instrs uint64) float64 {
	return float64(instrs) / (m.MIPS * 1e6)
}

// PauseSeconds converts traced bytes to a collection pause.
func (m Machine) PauseSeconds(tracedBytes uint64) float64 {
	return float64(tracedBytes) / m.TraceBytesPer
}

// Mode selects what the run measures.
type Mode int

const (
	// ModePolicy runs a collector driven by Config.Policy.
	ModePolicy Mode = iota
	// ModeNoGC never collects: memory is cumulative allocation (the
	// paper's "No GC" row).
	ModeNoGC
	// ModeLive reclaims at the moment of death: memory is the exact
	// live-byte curve (the paper's "Live" row).
	ModeLive
)

// Config parameterizes one simulation run.
type Config struct {
	Mode         Mode
	Policy       core.Policy // required for ModePolicy
	Machine      Machine     // zero value replaced by PaperMachine
	TriggerBytes uint64      // scavenge interval; zero value = 1 MB
	RecordCurve  bool        // retain the Figure-2 memory series
	CurvePoints  int         // downsample limit for curves (0 = keep all)

	// PolicySeed seeds adaptive policies (core.AdaptivePolicy): the
	// per-run instance seed is derived deterministically from this
	// value, Label and the collector name, so every replay path —
	// solo, fleet fan-out, streamed, checkpoint/resume — instantiates
	// identical state for the same configuration. Zero is a valid
	// seed. Pure policies ignore it.
	PolicySeed uint64

	// PageFrames, when non-zero, enables the virtual-memory model: an
	// LRU resident set of that many PageBytes-sized frames is driven
	// by mutator and collector touches, and the Result reports fault
	// counts — the locality axis generational collection was built
	// for. Objects are placed at bump addresses; scavenge survivors
	// are rewritten to fresh addresses (copying semantics), which is
	// what gives partial collection its locality advantage.
	PageFrames int
	// PageBytes defaults to 4096 when PageFrames is set.
	PageBytes uint64

	// ReferenceScan routes every boundary query (LiveBytesBornAfter)
	// through the O(live objects) reference tail scan instead of the
	// birth-epoch bucket accounting, and starts the tape's id→ordinal
	// index on its map arm instead of resolving consecutively numbered
	// objects by arithmetic. Each pair is identical by construction —
	// the differential oracle (internal/audit) replays one side of its
	// comparison on this path to keep them provably so. Queries run
	// only at policy decisions, so even the naive scan costs little;
	// leave this off outside audits and debugging. In a Fleet the tape
	// is shared, so one config with this set puts the whole fleet's
	// index on the map.
	ReferenceScan bool

	// UncompactedTape disables epoch-based compaction of dead tape
	// prefixes (see compact.go), pinning every object the trace ever
	// allocated in the tape for the whole run — the pre-compaction
	// memory profile. Compaction is invisible by construction; the
	// audit oracle replays its reference leg on this path to keep it
	// provably so. In a Fleet the tape is shared, so one config with
	// this set disables compaction for every runner in the fleet.
	UncompactedTape bool

	// Opportunistic enables Wilson & Moher-style scheduling on the
	// "when to collect" axis the paper contrasts with its own "what
	// to collect" contribution (§4): a Mark event in the trace — a
	// program quiescent point such as the end of a compilation pass
	// or a showpage — triggers a scavenge early, once at least half
	// the byte trigger has accumulated. The byte trigger still fires
	// as a backstop, so memory stays bounded on mark-free traces.
	Opportunistic bool

	// Probe, when non-nil, receives the run's telemetry events (see
	// Probe). Telemetry observes, never influences: a run's result is
	// identical with or without a probe attached, and a nil probe
	// costs the hot path nothing.
	Probe Probe
	// Label tags every event this run emits, so one sink can demux
	// several concurrent runs. Empty is fine for single runs.
	Label string
	// ProgressBytes sets the allocation interval between Progress
	// events; zero means 4 MB. Progress events are only produced when
	// a Probe is attached.
	ProgressBytes uint64
}

func (c Config) withDefaults() Config {
	if c.Machine.isZero() {
		c.Machine = PaperMachine()
	}
	if c.TriggerBytes == 0 {
		c.TriggerBytes = 1 << 20
	}
	if c.PageFrames > 0 && c.PageBytes == 0 {
		c.PageBytes = 4096
	}
	if c.ProgressBytes == 0 {
		c.ProgressBytes = 4 << 20
	}
	return c
}

// Validate reports why the configuration cannot run, or nil. It
// checks the post-default view of the config, so a zero Machine (to
// be replaced by PaperMachine) is valid while a half-filled one is
// not. NewRunner validates implicitly; replay harnesses call this to
// reject a whole config set before any runner has emitted telemetry.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	switch c.Mode {
	case ModePolicy:
		if c.Policy == nil {
			return errors.New("sim: ModePolicy requires a Policy")
		}
	case ModeNoGC, ModeLive:
	default:
		return fmt.Errorf("sim: unknown mode %d", c.Mode)
	}
	return nil
}

// Result reports everything the paper's tables and figures need from
// one run.
type Result struct {
	Collector string // policy name, "NoGC" or "Live"

	// Table 2: memory (bytes; time-weighted mean over the run and max).
	MemMeanBytes float64
	MemMaxBytes  float64

	// Oracle live-byte statistics for the same run (the "Live" row and
	// tenured-garbage analysis).
	LiveMeanBytes float64
	LiveMaxBytes  float64

	// Table 3: pause times, seconds, one per scavenge.
	Pauses []float64

	// Table 4: total bytes traced and estimated CPU overhead.
	TracedTotalBytes uint64
	OverheadPct      float64

	Collections int
	TotalAlloc  uint64  // total bytes allocated by the program
	ExecSeconds float64 // program execution time on the machine model

	// Figure 2: memory-in-use and live-bytes series over the
	// allocation clock (nil unless Config.RecordCurve).
	Curve     *stats.Series
	LiveCurve *stats.Series

	// Virtual-memory model results (zero unless Config.PageFrames).
	PageFaults   uint64
	PageAccesses uint64

	// Full per-scavenge history (boundaries, traced, survivors).
	History core.History
}

// MedianPauseSeconds returns the median pause, 0 if no collections ran.
func (r *Result) MedianPauseSeconds() float64 { return stats.Percentile(r.Pauses, 50) }

// P90PauseSeconds returns the 90th-percentile pause.
func (r *Result) P90PauseSeconds() float64 { return stats.Percentile(r.Pauses, 90) }

// TenuredGarbageMeanBytes is the time-weighted mean of dead storage
// held in memory: what the collector's policy left unreclaimed above
// the oracle live floor.
func (r *Result) TenuredGarbageMeanBytes() float64 { return r.MemMeanBytes - r.LiveMeanBytes }

// birthBucketShift sizes the birth-epoch buckets behind
// LiveBytesBornAfter: 64 KB of allocation clock per bucket. Wider
// buckets shrink the bucket array but lengthen the partial scan at
// the boundary's own bucket; 64 KB keeps both small for paper-scale
// runs (a 100 MB trace is ~1600 buckets).
const birthBucketShift = 16

// birthBucket maps a clock reading to its birth-epoch bucket. The
// bucket index stays uint64 end to end: converting to int here would
// silently truncate on 32-bit platforms for clocks past 256 GB.
// Conversion to a slice index happens only after subtracting the
// tape's bucketBase and checking the result against maxBuckets.
func birthBucket(t core.Time) uint64 { return t.Bytes() >> birthBucketShift }

// resolved is one trace event after tape resolution: object identity
// replaced by a dense ordinal, sizes, the allocation clock and the
// oracle live bytes already computed, validation already done.
// Applying a resolved event to a runner touches no maps, reads no tape
// state and cannot fail, which is what makes the fan-out apply loop
// tight — and what lets a fleet apply a run of events resolved ahead
// of time to one runner after another, or from the run's summary.
type resolved struct {
	kind  trace.Kind
	ord   int32 // alloc: new ordinal; free/ptrwrite: target (-1 if unknown)
	size  uint64
	instr uint64
	clock core.Time // allocation clock after this event
	live  uint64    // oracle live bytes after this event
}

// tape is the collector-independent view of a replayed trace: every
// fact that is identical no matter which policy is running — object
// identity, sizes, birth times, the program's free oracle, the
// allocation clock, event validation, and the live-byte accounting
// behind boundary queries. A Fleet owns one tape and shares it across
// all of its runners, so this work happens once per trace instead of
// once per collector; a solo Runner reads the tape of its fleet of one.
//
// Objects are numbered by dense ordinals in allocation order,
// relative to a sliding base: epoch-based compaction (see compact.go)
// retires the prefix of ordinals whose whole birth cohort is dead and
// no runner can address again, shifting the per-ordinal arrays down
// and rebasing every retained ordinal, so the tape's footprint tracks
// the live set plus one birth epoch instead of the total number of
// objects the trace ever allocated. Retired trace IDs leave the index
// but stay summarized in a merged span set, so the validation
// contract survives compaction intact: trace IDs are unique for the
// lifetime of a trace (see trace.Validate), and an ID that reuses a
// retired object's number is still rejected as a duplicate
// allocation.
//
// The id→ordinal index has two arms. While every alloc has taken the
// ID one past the previous alloc's (modulo 2^64), a retained ID's
// ordinal is id − idBase, index and ids stay nil, and no map or ID
// array is touched per event: retiring a prefix records its IDs as one
// span and advances idBase. Every producer in the module numbers
// objects that way — the workload generator, mheap and trace.Builder.
// The first alloc that breaks the sequence (a windowed trace's
// survivors, an arbitrary upload) builds the map and the ids array
// from the retained ordinals once, and the tape stays on the map from
// then on; Config.ReferenceScan starts it there.
//
// The death log is the program's frees in trace order, one (ordinal,
// size) entry each, which log runners reclaim from instead of sweeping
// an object list of their own (see Runner.reclaimLogged). resolve appends
// to it only when some runner reads it, and trimDeaths drops the
// prefix every log runner has consumed.
type tape struct {
	index  map[trace.ObjectID]int32 // nil on the arithmetic arm (see lookup)
	idBase trace.ObjectID           // arithmetic arm: the ID of ordinal 0
	ids    []trace.ObjectID         // map arm only, per ordinal: retire summarizes retired IDs from it and drops them from the map
	sizes  []uint64                 // per ordinal
	births []core.Time              // per ordinal, nondecreasing
	dead   []bool                   // per ordinal: freed by the program

	// deaths[i] is the death-log entry numbered deathBase+i; runner
	// cursors count entries from the start of the trace, so trimming
	// the front never touches them. logDeaths is set when some runner
	// reclaims from the log.
	deaths    []death
	deathBase uint64
	logDeaths bool

	live uint64 // live bytes (the oracle)
	// liveStat is the time-weighted oracle live-byte statistic,
	// observed once per alloc and free. It is the same for every
	// collector, so the tape keeps the one copy all of its runners
	// share; each runner's Finish closes a copy of it (see
	// Runner.Finish).
	liveStat stats.Weighted
	// liveByBirth[b-bucketBase] is the live bytes of objects born in
	// clock bucket b, maintained on every alloc and free. It makes
	// boundary queries (LiveBytesBornAfter, executed on every policy
	// decision and for every FEEDMED advance candidate) a partial scan
	// of one bucket plus a bucket-suffix sum instead of a tail scan
	// over all live objects. Compaction trims the all-dead prefix and
	// advances bucketBase; bucketBase never exceeds the clock's own
	// bucket, so the next alloc always lands at a valid index.
	liveByBirth []uint64
	bucketBase  uint64

	// Compaction state: whether it is enabled for this tape (off for
	// raw tapes, Config.UncompactedTape, and fleets whose vmem
	// baselines address every ordinal forever), the count of ordinals
	// retired behind the sliding base, the retired-ID summary, and the
	// event count at the last cadence check.
	compact          bool
	retiredOrds      uint64
	retired          idSpans
	trimmedBuckets   uint64
	lastCompactCheck int

	// Compaction tunables, fields so tests can tighten them; newTape
	// sets the package defaults. ordLimit caps the ordinals retained
	// at once (the int32 ordinal encoding's real limit — total objects
	// are unbounded once compaction slides the base); maxBuckets caps
	// the bucket span so the relative index always fits an int.
	checkEvery     int
	minRetire      int
	minTrimBuckets int
	ordLimit       int
	maxBuckets     uint64

	clock     core.Time
	lastInstr uint64
	events    int
}

// death is one death-log entry: the ordinal and size of an object the
// program freed.
type death struct {
	ord  int32
	size uint64
}

func newTape() *tape {
	return &tape{
		checkEvery:     compactCheckEvery,
		minRetire:      compactMinRetire,
		minTrimBuckets: compactMinTrimBuckets,
		ordLimit:       math.MaxInt32,
		maxBuckets:     1 << 31,
	}
}

// configure settles what the runners sharing the tape decide for it
// together: whether it compacts (see tapeCompactionAllowed), whether
// it logs deaths, which any log runner needs, and whether its index
// starts on the map arm, which Config.ReferenceScan on any runner
// selects.
func (tp *tape) configure(runners []*Runner) {
	tp.compact = tapeCompactionAllowed(runners)
	for _, r := range runners {
		tp.logDeaths = tp.logDeaths || r.logs()
		if r.cfg.ReferenceScan && tp.index == nil {
			tp.mapIndex()
		}
	}
}

// resolve validates one event against the tape and advances the shared
// state, filling out with the collector-independent facts runners need
// to apply it. A failed resolve leaves the tape untouched, so feeding
// can stop exactly at the offending event.
//
//dtbvet:hotpath one call per trace event, shared by every runner on the tape
func (tp *tape) resolve(e trace.Event, out *resolved) error {
	i := tp.events
	if e.Instr < tp.lastInstr {
		return fmt.Errorf("sim: event %d: clock regressed", i)
	}
	switch e.Kind {
	case trace.KindAlloc:
		if _, dup := tp.lookup(e.ID); dup {
			return fmt.Errorf("sim: event %d: duplicate allocation of object %d", i, e.ID)
		}
		// An ID missing from the index may still have been seen and
		// retired by compaction; reusing it is the same trace defect.
		if len(tp.retired) > 0 && tp.retired.contains(e.ID) {
			return fmt.Errorf("sim: event %d: duplicate allocation of object %d", i, e.ID)
		}
		if len(tp.sizes) >= tp.ordLimit {
			return fmt.Errorf("sim: event %d: tape ordinal limit: %d objects retained at once", i, len(tp.sizes))
		}
		clock := tp.clock.Add(e.Size)
		b := birthBucket(clock)
		if b-tp.bucketBase >= tp.maxBuckets {
			return fmt.Errorf("sim: event %d: birth bucket %d out of range (base %d, limit %d buckets)", i, b, tp.bucketBase, tp.maxBuckets)
		}
		ord := int32(len(tp.sizes))
		// Every check has passed, so only now may the alloc move the
		// index off its arithmetic arm. The trace's first alloc sets
		// the base instead.
		if tp.index == nil && e.ID != tp.idBase+trace.ObjectID(ord) {
			if tp.retiredOrds == 0 && ord == 0 {
				tp.idBase = e.ID
			} else {
				tp.mapIndex()
			}
		}
		if tp.index != nil {
			tp.index[e.ID] = ord
			tp.ids = append(tp.ids, e.ID)
		}
		tp.clock = clock
		tp.sizes = append(tp.sizes, e.Size)
		tp.births = append(tp.births, clock)
		tp.dead = append(tp.dead, false)
		tp.live += e.Size
		rb := int(b - tp.bucketBase)
		if rb >= len(tp.liveByBirth) {
			tp.liveByBirth = growBuckets(tp.liveByBirth, rb+1)
		}
		tp.liveByBirth[rb] += e.Size
		tp.liveStat.Observe(float64(e.Instr), float64(tp.live))
		*out = resolved{kind: trace.KindAlloc, ord: ord, size: e.Size, instr: e.Instr, clock: clock, live: tp.live}
	case trace.KindFree:
		ord, ok := tp.lookup(e.ID)
		if !ok {
			// A retired object was dead when it left the tape, so a free
			// of its ID is the double free it would have been before
			// compaction — same defect, same error.
			if len(tp.retired) > 0 && tp.retired.contains(e.ID) {
				return fmt.Errorf("sim: event %d: double free of object %d", i, e.ID)
			}
			return fmt.Errorf("sim: event %d: free of unknown object %d", i, e.ID)
		}
		if tp.dead[ord] {
			return fmt.Errorf("sim: event %d: double free of object %d", i, e.ID)
		}
		tp.dead[ord] = true
		size := tp.sizes[ord]
		tp.live -= size
		// A live object's bucket holds at least its own size, so it can
		// never be part of a trimmed (all-dead) prefix: the subtraction
		// index is always in range.
		tp.liveByBirth[birthBucket(tp.births[ord])-tp.bucketBase] -= size
		if tp.logDeaths {
			tp.deaths = append(tp.deaths, death{ord: ord, size: size})
		}
		tp.liveStat.Observe(float64(e.Instr), float64(tp.live))
		*out = resolved{kind: trace.KindFree, ord: ord, size: size, instr: e.Instr, clock: tp.clock, live: tp.live}
	case trace.KindPtrWrite:
		// Pointer stores do not affect the oracle liveness; the target
		// ordinal is resolved here so the virtual-memory model can
		// touch it without a map lookup per runner. A retired ID misses
		// the index and resolves to unknown (-1) — observably identical
		// to the uncompacted tape, because retirement requires every
		// runner to have reclaimed the object already, and reclaimed
		// objects are not touched either way.
		ord, ok := tp.lookup(e.ID)
		if !ok {
			ord = -1
		}
		*out = resolved{kind: trace.KindPtrWrite, ord: ord, instr: e.Instr, clock: tp.clock, live: tp.live}
	case trace.KindMark:
		*out = resolved{kind: trace.KindMark, ord: -1, instr: e.Instr, clock: tp.clock, live: tp.live}
	default:
		return fmt.Errorf("sim: event %d: unknown kind %d", i, e.Kind)
	}
	tp.lastInstr = e.Instr
	tp.events++
	return nil
}

// lookup returns the ordinal of a retained trace ID. On the
// arithmetic arm that is one subtraction: an ID below the base wraps
// to a difference past the retained range, so one unsigned comparison
// rejects IDs on either side of it.
func (tp *tape) lookup(id trace.ObjectID) (int32, bool) {
	if tp.index == nil {
		if d := uint64(id - tp.idBase); d < uint64(len(tp.sizes)) {
			return int32(d), true
		}
		return 0, false
	}
	ord, ok := tp.index[id]
	return ord, ok
}

// mapIndex moves the index onto its map arm for good. Until then every
// retained ordinal's ID was idBase+ordinal, which is what it keys the
// map and fills the ids array with.
func (tp *tape) mapIndex() {
	n := len(tp.sizes)
	tp.index = make(map[trace.ObjectID]int32, n)
	tp.ids = make([]trace.ObjectID, n)
	for ord := range tp.ids {
		id := tp.idBase + trace.ObjectID(ord)
		tp.ids[ord] = id
		tp.index[id] = int32(ord)
	}
}

// bornAfter returns the first ordinal born after t: births are
// nondecreasing, so every later ordinal is born after t too.
func (tp *tape) bornAfter(t core.Time) int {
	births := tp.births
	return sort.Search(len(births), func(i int) bool { return births[i] > t })
}

// liveBytesBornAfter is the bucketed boundary query over the tape.
// Reclaimed objects stay in the ordinal arrays with dead=true, which
// cannot change the sum — only live bytes count — so the query is
// identical for every runner sharing the tape regardless of how much
// each one has scavenged.
//
//dtbvet:hotpath consulted by every policy Boundary() call during replay
func (tp *tape) liveBytesBornAfter(t core.Time) uint64 {
	return tp.liveBytesFrom(tp.bornAfter(t), t)
}

// liveBytesFrom is liveBytesBornAfter(t) given i = tp.bornAfter(t),
// for callers that need the ordinal too. When every retained object is
// born after t, that is every live byte: retired objects are all dead.
func (tp *tape) liveBytesFrom(i int, t core.Time) uint64 {
	if i == 0 {
		return tp.live
	}
	births := tp.births
	b := birthBucket(t)
	// Births sharing t's bucket need individual comparison — the
	// bucket sums only cover whole buckets. Later buckets hold only
	// births strictly after t, so their sums apply wholesale. The scan
	// ends on bucket identity, not a computed bucket-end clock: for
	// the final bucket of the clock space that end value would wrap
	// to zero and the scan would run over every retained birth.
	var sum uint64
	for ; i < len(births) && birthBucket(births[i]) == b; i++ {
		if !tp.dead[i] {
			sum += tp.sizes[i]
		}
	}
	// Bucket sums are stored relative to bucketBase. A query at or
	// below the trimmed prefix starts the suffix at the base: the
	// trimmed buckets hold no live bytes by construction.
	j := uint64(0)
	if b+1 > tp.bucketBase {
		j = b + 1 - tp.bucketBase
	}
	for ; j < uint64(len(tp.liveByBirth)); j++ {
		sum += tp.liveByBirth[j]
	}
	return sum
}

// growBuckets extends the bucket slice to length n in one sized step,
// zeroing any cells reused from capacity left behind by a prefix trim
// (the copy-down leaves stale sums past the new length).
func growBuckets(s []uint64, n int) []uint64 {
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		for i := old; i < n; i++ {
			s[i] = 0
		}
		return s
	}
	t := make([]uint64, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}

// liveBytesBornAfterNaive is the reference tail scan the bucket
// accounting replaced; the equivalence test pins the two together,
// and Config.ReferenceScan runs whole simulations on this path so the
// audit oracle can diff the results.
func (tp *tape) liveBytesBornAfterNaive(t core.Time) uint64 {
	births := tp.births
	i := sort.Search(len(births), func(i int) bool { return births[i] > t })
	var sum uint64
	for ; i < len(births); i++ {
		if !tp.dead[i] {
			sum += tp.sizes[i]
		}
	}
	return sum
}

// policyHeap is the core.Heap view a policy sees at a decision point:
// bytes-in-use are this runner's (reclamation timing is policy
// dependent) while live-byte queries come from the shared tape (the
// free oracle is policy independent).
type policyHeap struct{ r *Runner }

// BytesInUse implements core.Heap.
func (h policyHeap) BytesInUse() uint64 { return h.r.inUse }

// LiveBytesBornAfter implements core.Heap.
func (h policyHeap) LiveBytesBornAfter(t core.Time) uint64 {
	if h.r.cfg.ReferenceScan {
		return h.r.tape.liveBytesBornAfterNaive(t)
	}
	return h.r.tape.liveBytesBornAfter(t)
}

// Runner is one collector's simulation: feed events in trace order,
// then Finish. A Fleet feeds its runners off one shared tape; a runner
// from NewRunner is the only runner of a fleet of its own and takes
// events through Feed. Run and RunReader are thin wrappers around it.
type Runner struct {
	cfg  Config
	res  *Result
	tape *tape
	view core.Heap // policyHeap, boxed once at construction
	// solo is the lockstep fleet of one NewRunner built around this
	// runner, which Feed feeds. It is nil for the runners of NewFleet,
	// whose events arrive through Fleet.FeedBatch: a direct Feed would
	// advance the shared tape ahead of the sibling runners.
	solo *Fleet

	// Per-collector heap state. Every live object is in every runner's
	// heap, so what sets one policy runner's heap apart is the dead
	// objects it has not reclaimed yet. A log runner (sweeps unset)
	// holds them as the death-log entries past cursor (the frees since
	// its last scavenge) plus tenured, the garbage earlier boundaries
	// left behind. A sweeping runner instead keeps objs: the ordinals of
	// every object in its heap, live or dead, in birth order, which
	// scavenge sweeps. Sizes, births and deadness live on the tape.
	sweeps  bool
	objs    []int32
	cursor  uint64
	tenured tenuredSet
	inUse   uint64 // live + dead-but-unreclaimed bytes

	// instance is the per-run state of an adaptive policy, minted by
	// newRunner from the config-derived seed; nil for pure policies
	// and the NoGC/Live baselines. explain is the same instance's
	// optional telemetry view.
	instance core.PolicyInstance
	explain  core.DecisionExplainer

	// isPolicy/opportunistic/hasProbe cache config tests so the batch
	// apply loop branches on booleans instead of chasing cfg fields.
	// summarizes marks a runner with no per-event state (no curve, no
	// vmem model, not opportunistic): a fleet can apply a whole run to
	// it from the run's summary (see applySummary).
	isPolicy      bool
	opportunistic bool
	hasProbe      bool
	summarizes    bool

	clock         core.Time
	sinceTrigger  uint64
	sinceProgress uint64
	memStat       stats.Weighted // unused by ModeLive, whose memory is the tape's live statistic
	// liveStat is sampled only by opportunistic runners: their
	// post-scavenge sample at a Mark splits a live-byte interval the
	// tape's statistic holds whole, which can round differently. Every
	// other runner's extra samples land at the instruction of the alloc
	// just observed, a dt=0 no-op, so it reuses the tape's statistic.
	liveStat  stats.Weighted
	lastInstr uint64
	nEvents   int
	curve     *stats.Series
	liveCurve *stats.Series
	finished  bool

	// Virtual-memory model (nil unless configured). Placement is per
	// runner: survivors relocate at scavenges, so addresses diverge
	// between collectors after the first collection. present tracks
	// which ordinals are still in this runner's heap (pointer stores
	// to reclaimed objects touch nothing).
	pages    *vmem.Model
	nextAddr uint64
	addrs    []uint64
	present  []bool
}

// NewRunner validates the configuration and returns a Runner ready for
// events: the only runner of a fleet of its own, which resolves each
// event and applies it before resolving the next. The probe's RunStart
// fires only after validation succeeds, so a rejected config never
// opens a telemetry stream it cannot close.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := NewFleet([]Config{cfg})
	if err != nil {
		return nil, err
	}
	f.lockstep()
	r := f.runners[0]
	r.solo = f
	return r, nil
}

func newRunner(tp *tape, cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	switch cfg.Mode {
	case ModePolicy:
		res.Collector = cfg.Policy.Name()
	case ModeNoGC:
		res.Collector = "NoGC"
	case ModeLive:
		res.Collector = "Live"
	}
	r := &Runner{cfg: cfg, res: res, tape: tp}
	r.view = policyHeap{r}
	r.isPolicy = cfg.Mode == ModePolicy
	if r.isPolicy {
		if ap, ok := cfg.Policy.(core.AdaptivePolicy); ok {
			r.instance = ap.NewRun(derivePolicySeed(cfg.PolicySeed, cfg.Label, res.Collector))
			r.explain, _ = r.instance.(core.DecisionExplainer)
		}
	}
	r.opportunistic = r.isPolicy && cfg.Opportunistic
	r.hasProbe = cfg.Probe != nil
	if cfg.RecordCurve {
		r.curve = &stats.Series{Name: res.Collector}
		r.liveCurve = &stats.Series{Name: "Live"}
	}
	if cfg.PageFrames > 0 {
		r.pages = vmem.New(cfg.PageBytes, cfg.PageFrames)
	}
	r.summarizes = r.curve == nil && r.pages == nil && !r.opportunistic
	// The reference leg sweeps its own object list, so every audit diffs
	// the death log against it; vmem relocates every survivor in birth
	// order, which is the order objs lists them in.
	r.sweeps = r.isPolicy && (cfg.ReferenceScan || r.pages != nil)
	if p := cfg.Probe; p != nil {
		p.RunStart(RunStart{
			Label:         cfg.Label,
			Collector:     res.Collector,
			Machine:       cfg.Machine,
			TriggerBytes:  cfg.TriggerBytes,
			ProgressBytes: cfg.ProgressBytes,
			Opportunistic: cfg.Opportunistic,
		})
	}
	return r, nil
}

// logs reports whether r is a log runner: a policy runner that
// reclaims from the tape's death log rather than sweeping objs.
func (r *Runner) logs() bool { return r.isPolicy && !r.sweeps }

// Collector returns the name the run's Result will carry ("Full",
// "DtbFM", "NoGC", ...). It is available from construction, so replay
// harnesses can label per-runner errors before Finish.
func (r *Runner) Collector() string { return r.res.Collector }

// PolicyInstance returns the runner's adaptive-policy state, or nil
// for pure policies and the baselines. It is exposed for checkpoint
// tooling and tests; mutating it mid-run breaks replay bit-identity
// unless the state is restored before feeding resumes, which is
// exactly what engine.Checkpoint does.
func (r *Runner) PolicyInstance() core.PolicyInstance { return r.instance }

// derivePolicySeed turns the user-facing PolicySeed into the per-run
// instance seed: FNV-1a over the label and collector name, folded
// with the user seed through a splitmix64 finalizer. Deriving from
// the config alone (never from run order or wall time) is what lets
// every replay path mint bit-identical instances.
func derivePolicySeed(userSeed uint64, label, collector string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	h *= prime // separator so ("ab","c") and ("a","bc") differ
	for i := 0; i < len(collector); i++ {
		h ^= uint64(collector[i])
		h *= prime
	}
	z := h ^ (userSeed + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// memInUse is the run's memory-in-use, given the oracle live bytes.
func (r *Runner) memInUse(live uint64) uint64 {
	switch r.cfg.Mode {
	case ModeNoGC:
		return r.clock.Bytes() // cumulative allocation, frees ignored
	case ModeLive:
		return live
	default:
		return r.inUse
	}
}

// sample records the memory statistics after ev. The live bytes come
// from the resolved event, never the tape, so a run of events resolved
// ahead of time samples exactly what lockstep replay would.
func (r *Runner) sample(ev *resolved) {
	m := r.memInUse(ev.live)
	if r.cfg.Mode != ModeLive {
		r.memStat.Observe(float64(ev.instr), float64(m))
	}
	if r.opportunistic {
		r.liveStat.Observe(float64(ev.instr), float64(ev.live))
	}
	if r.curve != nil {
		r.curve.Append(float64(r.clock), float64(m))
		r.liveCurve.Append(float64(r.clock), float64(ev.live))
	}
}

// errFeedAfterFinish and errFleetFeed are allocated once so the hot
// entry points return them without formatting.
var (
	errFeedAfterFinish = errors.New("sim: Feed after Finish")
	errFleetFeed       = errors.New("sim: Feed on a fleet runner (events arrive via Fleet.FeedBatch)")
)

// Feed processes one event. Events must arrive in trace order. Only a
// runner from NewRunner takes events directly.
func (r *Runner) Feed(e trace.Event) error {
	if r.finished {
		return errFeedAfterFinish
	}
	if r.solo == nil {
		return errFleetFeed
	}
	one := [1]trace.Event{e}
	return r.solo.FeedBatch(one[:])
}

// apply runs resolved events through this runner's collector, one at
// a time. The events were validated by the tape, so apply cannot fail;
// everything per event here is per-collector work (memory accounting,
// trigger bookkeeping, sampling, scavenges). Only a scavenge or a
// Progress event reads the shared tape or calls out of the runner;
// Fleet predicts both, so it can apply the events between them a whole
// run at a time.
//
//dtbvet:hotpath the per-runner batch apply loop of every replay
func (r *Runner) apply(batch []resolved) {
	for k := range batch {
		ev := &batch[k]
		r.nEvents++
		r.lastInstr = ev.instr
		switch ev.kind {
		case trace.KindAlloc:
			r.clock = ev.clock
			r.inUse += ev.size
			if r.sweeps {
				r.objs = append(r.objs, ev.ord)
			}
			if r.pages != nil {
				addr := r.nextAddr
				r.nextAddr += ev.size
				r.addrs = append(r.addrs, addr)
				r.present = append(r.present, true)
				r.pages.Touch(addr, ev.size) // the mutator initializes it
			}
			r.sinceTrigger += ev.size
			r.sample(ev)
			if r.isPolicy && r.sinceTrigger >= r.cfg.TriggerBytes {
				r.sinceTrigger = 0
				r.scavenge(TriggerByteBudget, ev.live)
				r.sample(ev)
			}
			if r.hasProbe {
				r.sinceProgress += ev.size
				if r.sinceProgress >= r.cfg.ProgressBytes {
					r.sinceProgress = 0
					r.cfg.Probe.Progress(Progress{
						Label:       r.cfg.Label,
						Events:      r.nEvents,
						Instr:       ev.instr,
						Clock:       r.clock,
						InUse:       r.memInUse(ev.live),
						Live:        ev.live,
						Collections: r.res.Collections,
					})
				}
			}
		case trace.KindFree:
			if r.pages != nil {
				// The object is necessarily still present: only dead
				// objects are reclaimed, and this one was live until
				// this very event.
				r.pages.Touch(r.addrs[ev.ord], ev.size) // last mutator access
			}
			r.sample(ev)
		case trace.KindMark:
			if r.opportunistic && r.sinceTrigger >= r.cfg.TriggerBytes/2 {
				r.sinceTrigger = 0
				r.scavenge(TriggerMark, ev.live)
				r.sample(ev)
			}
		case trace.KindPtrWrite:
			// Pointer stores do not affect the oracle liveness, but they
			// do touch memory for the virtual-memory model.
			if r.pages != nil && ev.ord >= 0 && r.present[ev.ord] {
				r.pages.Touch(r.addrs[ev.ord], 8)
			}
		default:
			// Unreachable: resolve rejects unknown kinds.
		}
	}
}

// scavenge runs one collection; live is the oracle live bytes at the
// triggering event. It is the one place apply reads the shared tape
// (the death log or the sweep, and the policy's boundary queries), so
// Fleet applies the events that can trigger it one at a time, to every
// runner in config order, with the tape resolved exactly up to that
// event.
//
//dtbvet:hotpath one call per simulated collection
func (r *Runner) scavenge(reason TriggerReason, live uint64) {
	cfg, res := r.cfg, r.res
	memBefore := r.inUse
	var tb core.Time
	if r.instance != nil {
		tb = core.ClampBoundary(r.instance.Boundary(r.clock, &res.History, r.view), r.clock)
	} else {
		tb = core.ClampBoundary(cfg.Policy.Boundary(r.clock, &res.History, r.view), r.clock)
	}
	if p := cfg.Probe; p != nil {
		d := Decision{
			Label:      cfg.Label,
			N:          res.Collections + 1,
			Trigger:    reason,
			Now:        r.clock,
			TB:         tb,
			Candidates: boundaryCandidates(&res.History),
			MemBefore:  memBefore,
			LiveBefore: live,
		}
		if r.explain != nil {
			if info, ok := r.explain.LastDecision(); ok {
				d.Adaptive = &AdaptiveDecision{Arm: info.Arm, FeatureDigest: info.FeatureDigest} //dtbvet:ignore hotalloc -- one tiny allocation per *collection* (not per event), only on adaptive runs with a probe; a scratch field would alias runner state into probes
			}
		}
		p.Decision(d)
	}
	// Collect with boundary tb: every dead object born after tb is
	// reclaimed, every live one born after tb is traced.
	var traced, reclaimed uint64
	if r.sweeps {
		traced, reclaimed = r.sweep(tb)
	} else {
		traced, reclaimed = r.reclaimLogged(tb)
	}
	res.History.Record(core.Scavenge{
		T:         r.clock,
		TB:        tb,
		MemBefore: memBefore,
		Traced:    traced,
		Reclaimed: reclaimed,
		Surviving: r.inUse,
	})
	res.Collections++
	res.TracedTotalBytes += traced
	pause := cfg.Machine.PauseSeconds(traced)
	res.Pauses = append(res.Pauses, pause)
	if p := cfg.Probe; p != nil {
		p.Scavenge(ScavengeEvent{
			Label:          cfg.Label,
			N:              res.Collections,
			Trigger:        reason,
			T:              r.clock,
			TB:             tb,
			MemBefore:      memBefore,
			Traced:         traced,
			Reclaimed:      reclaimed,
			Surviving:      r.inUse,
			Live:           live,
			TenuredGarbage: r.inUse - live,
			PauseSeconds:   pause,
		})
	}
	if r.instance != nil {
		r.instance.Observe(core.ScavengeFacts{
			Scavenge:      res.History.Scavenges[len(res.History.Scavenges)-1],
			Live:          live,
			MarkTriggered: reason == TriggerMark,
		})
	}
}

// reclaimLogged is a log runner's collection with boundary tb. Every
// live object is in every runner's heap, so the bytes traced are the
// tape's live bytes born after tb. The dead objects in this runner's
// heap are its tenured garbage and the deaths logged since its cursor:
// those born after tb are reclaimed, and new deaths born at or before
// it join the tenured set. Tenured garbage born after tb is there when
// the boundary moved back below earlier ones.
//
//dtbvet:hotpath one call per simulated collection on a log runner
func (r *Runner) reclaimLogged(tb core.Time) (traced, reclaimed uint64) {
	tp := r.tape
	i := tp.bornAfter(tb)
	traced = tp.liveBytesFrom(i, tb)
	thr := int32(i)
	reclaimed = r.tenured.reclaim(thr, tp.sizes)
	for _, d := range tp.deaths[r.cursor-tp.deathBase:] {
		if d.ord >= thr {
			reclaimed += d.size
		} else {
			r.tenured.add(d.ord)
		}
	}
	r.cursor = tp.deathBase + uint64(len(tp.deaths))
	r.inUse -= reclaimed
	return traced, reclaimed
}

// sweep is a sweeping runner's collection with boundary tb: objs is
// birth ordered, so the threatened region is a suffix, whose dead
// objects it drops and whose survivors it traces.
func (r *Runner) sweep(tb core.Time) (traced, reclaimed uint64) {
	tp := r.tape
	births := tp.births
	objs := r.objs
	start := sort.Search(len(objs), func(i int) bool { return births[objs[i]] > tb })
	w := start
	for i := start; i < len(objs); i++ {
		ord := objs[i]
		size := tp.sizes[ord]
		if tp.dead[ord] {
			reclaimed += size
			r.inUse -= size
			if r.present != nil {
				r.present[ord] = false
			}
			continue
		}
		traced += size
		objs[w] = ord
		w++
	}
	r.objs = objs[:w]
	if r.pages != nil {
		// Copying semantics: every survivor of the threatened region
		// is read at its old address and written to a fresh one; the
		// collector never touches garbage.
		for i := start; i < len(r.objs); i++ {
			ord := r.objs[i]
			size := tp.sizes[ord]
			r.pages.Touch(r.addrs[ord], size)
			r.addrs[ord] = r.nextAddr
			r.nextAddr += size
			r.pages.Touch(r.addrs[ord], size)
		}
	}
	return traced, reclaimed
}

// tenuredSet is a log runner's tenured garbage: the ordinals of dead
// objects that earlier boundaries left in its heap. A scavenge
// reclaims every member at or above its threshold ordinal, and
// compaction reads the smallest member as the oldest object the runner
// still holds. New members wait in an unsorted pending list, which
// costs O(1) each; only when a boundary moves back below one of them
// does the list move into a binary max-heap, which then yields its
// members from the largest down. So policies whose boundary never
// moves back (FIXED, FEEDMED) never touch the heap. Ordinals are
// unique, and after a reclaim every member left is below every member
// taken, so taking members never takes the minimum unless it empties
// the set.
type tenuredSet struct {
	heap       []int32 // binary max-heap
	pending    []int32
	pendingMax int32 // largest pending member; meaningless while pending is empty
	min        int32 // smallest member; meaningless while the set is empty
}

func (t *tenuredSet) add(ord int32) {
	if len(t.pending) == 0 || ord > t.pendingMax {
		t.pendingMax = ord
	}
	if t.empty() || ord < t.min {
		t.min = ord
	}
	t.pending = append(t.pending, ord)
}

// reclaim removes every member at or above thr and returns their
// total size.
func (t *tenuredSet) reclaim(thr int32, sizes []uint64) uint64 {
	var bytes uint64
	if len(t.pending) > 0 && t.pendingMax >= thr {
		for _, ord := range t.pending {
			if ord >= thr {
				bytes += sizes[ord]
			} else {
				t.push(ord)
			}
		}
		t.pending = t.pending[:0]
	}
	for len(t.heap) > 0 && t.heap[0] >= thr {
		bytes += sizes[t.pop()]
	}
	return bytes
}

func (t *tenuredSet) empty() bool { return len(t.heap) == 0 && len(t.pending) == 0 }

func (t *tenuredSet) push(ord int32) {
	t.heap = append(t.heap, ord)
	h := t.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// pop removes and returns the heap's largest ordinal; the heap must
// not be empty.
func (t *tenuredSet) pop() int32 {
	h := t.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	t.heap = h
	return top
}

// floor is the smallest member, or math.MaxInt32 when empty.
func (t *tenuredSet) floor() int32 {
	if t.empty() {
		return math.MaxInt32
	}
	return t.min
}

// rebase shifts every member down by d, which keeps the heap order.
func (t *tenuredSet) rebase(d int32) {
	for i := range t.heap {
		t.heap[i] -= d
	}
	for i := range t.pending {
		t.pending[i] -= d
	}
	t.pendingMax -= d
	t.min -= d
}

// Finish closes the run and returns the Result. It is idempotent.
func (r *Runner) Finish() *Result {
	if r.finished {
		return r.res
	}
	r.finished = true
	// The tape's live statistic is shared and may keep growing, so each
	// runner closes its own copy at its own last event.
	live := r.tape.liveStat
	if r.opportunistic {
		live = r.liveStat
	}
	live.Finish(float64(r.lastInstr))
	mem := live // the Live baseline's memory is the live-byte curve
	if r.cfg.Mode != ModeLive {
		mem = r.memStat
		mem.Finish(float64(r.lastInstr))
	}
	res := r.res
	res.MemMeanBytes = mem.Mean()
	res.MemMaxBytes = mem.Max()
	res.LiveMeanBytes = live.Mean()
	res.LiveMaxBytes = live.Max()
	res.TotalAlloc = r.clock.Bytes()
	res.ExecSeconds = r.cfg.Machine.Seconds(r.lastInstr)
	if res.ExecSeconds > 0 {
		res.OverheadPct = 100 * r.cfg.Machine.PauseSeconds(res.TracedTotalBytes) / res.ExecSeconds
	}
	if r.pages != nil {
		res.PageFaults = r.pages.Faults()
		res.PageAccesses = r.pages.Accesses()
	}
	if r.cfg.RecordCurve {
		curve, liveCurve := r.curve, r.liveCurve
		if r.cfg.CurvePoints > 0 {
			curve = curve.Downsample(r.cfg.CurvePoints)
			liveCurve = liveCurve.Downsample(r.cfg.CurvePoints)
		}
		res.Curve = curve
		res.LiveCurve = liveCurve
	}
	if p := r.cfg.Probe; p != nil {
		p.RunFinish(RunFinish{Label: r.cfg.Label, Result: res})
	}
	return res
}

// Fleet runs many collectors over one trace, sharing the tape — the
// id→ordinal index, validation, the free oracle and the live-byte
// accounting — across all of them. Each event is resolved once and
// then applied to every runner, so the per-event map and validation
// cost is paid once per trace instead of once per collector, and most
// runners take each run of events between horizons from one summary
// of it (see FeedBatch). Every runner's Result, History and telemetry
// sequence is bit-identical to a solo run over the same events, which
// is itself a fleet of one in lockstep (see NewRunner).
type Fleet struct {
	tape     *tape
	runners  []*Runner
	finished bool

	// buf holds the events resolved ahead of the next horizon.
	// sampleInstr is the instruction of the last alloc or free applied,
	// where the next run's first memory-statistic interval starts.
	// perEvent makes every runner apply every run event by event. Both
	// are set by lockstep, for solo runners, and by tests (see
	// tuneRuns).
	buf         []resolved
	sampleInstr uint64
	perEvent    bool
}

// fleetRunEvents bounds a run: 1024 resolved events (40 bytes each)
// stay cache-resident while the summary pass and the per-event runners
// read them.
const fleetRunEvents = 1024

// NewFleet validates every config before constructing any runner (a
// bad config halfway through the set would otherwise leave earlier
// runners' telemetry streams opened but never finished), then builds
// the runners in config order on one shared tape.
func NewFleet(cfgs []Config) (*Fleet, error) {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: config %d: %w", i, err)
		}
	}
	tp := newTape()
	f := &Fleet{tape: tp, runners: make([]*Runner, 0, len(cfgs)), buf: make([]resolved, fleetRunEvents)}
	seen := make(map[core.PolicyInstance]int)
	for i, cfg := range cfgs {
		r, err := newRunner(tp, cfg)
		if err != nil {
			return nil, err
		}
		if inst := r.instance; inst != nil && reflect.TypeOf(inst).Comparable() {
			// A shared instance would let one runner's learning leak into
			// another's decisions — the exact hazard the per-run contract
			// exists to prevent. NewRun must mint fresh state every call.
			if j, dup := seen[inst]; dup {
				return nil, fmt.Errorf("sim: configs %d and %d share one adaptive policy instance (%T): NewRun must mint a fresh instance per run", j, i, inst)
			}
			seen[inst] = i
		}
		f.runners = append(f.runners, r)
	}
	tp.configure(f.runners)
	if testRuns.on {
		tuneRuns(f, testRuns.summary)
	}
	return f, nil
}

// lockstep makes f resolve one event at a time and apply it to every
// runner before resolving the next: the order solo runs replay in,
// whatever batches the caller feeds. Nothing is resolved ahead and no
// run is applied from its summary, so the oracle's reference leg
// shares neither mechanism with the fan-out it checks.
func (f *Fleet) lockstep() {
	f.buf = make([]resolved, 1)
	f.perEvent = true
}

// tuneRuns makes f resolve ahead at most 16 events, so runs cut by a
// full buffer come between nearly every pair of horizons, and, unless
// summary is set, apply every run to every runner event by event: the
// per-event leg summary apply is diffed against.
func tuneRuns(f *Fleet, summary bool) {
	f.buf = make([]resolved, 16)
	f.perEvent = !summary
}

// testRuns, when on, makes NewFleet tune every fleet it builds with
// tuneRuns. Only TuneRunsForTest sets it.
var testRuns struct{ on, summary bool }

// TuneRunsForTest makes every fleet built until restore is called cut
// its runs at 16 events and, unless summary is set, apply them event
// by event. It is a test hook for packages that replay through the
// engine and never hold the fleet; it must not run concurrently with
// NewFleet. The lockstep fleets of solo runners are left in lockstep.
func TuneRunsForTest(summary bool) (restore func()) {
	prev := testRuns
	testRuns.on, testRuns.summary = true, summary
	return func() { testRuns = prev }
}

// Runners returns the fleet's runners in config order. They are owned
// by the fleet: feed events through FeedBatch, not Runner.Feed.
func (f *Fleet) Runners() []*Runner { return f.runners }

// SnapshotPolicyState captures the adaptive-policy state of every
// runner, in config order: one opaque snapshot per runner, nil for
// runners whose policy is pure (or whose mode is not ModePolicy). The
// engine's checkpoints store these alongside the event count so a
// resumed replay restores the learned state the checkpoint saw rather
// than trusting whatever mutated in memory since.
func (f *Fleet) SnapshotPolicyState() [][]byte {
	out := make([][]byte, len(f.runners))
	for i, r := range f.runners {
		if r.instance != nil {
			out[i] = r.instance.Snapshot()
		}
	}
	return out
}

// RestorePolicyState restores the per-runner adaptive state captured
// by SnapshotPolicyState on the same fleet shape: the slice length and
// the nil/non-nil pattern must match the fleet's runners exactly. A
// failed restore leaves earlier runners restored — callers treat any
// error as fatal for the replay, so partial application is harmless.
func (f *Fleet) RestorePolicyState(snaps [][]byte) error {
	if len(snaps) != len(f.runners) {
		return fmt.Errorf("sim: policy state for %d runners cannot restore a fleet of %d", len(snaps), len(f.runners))
	}
	for i, snap := range snaps {
		inst := f.runners[i].instance
		switch {
		case snap == nil && inst == nil:
			// pure policy on both sides
		case snap == nil:
			return fmt.Errorf("sim: runner %d (%s) has adaptive state but the snapshot recorded none", i, f.runners[i].res.Collector)
		case inst == nil:
			return fmt.Errorf("sim: snapshot carries adaptive state for runner %d (%s) but its policy is pure", i, f.runners[i].res.Collector)
		default:
			if err := inst.Restore(snap); err != nil {
				return fmt.Errorf("sim: runner %d (%s): restore policy state: %w", i, f.runners[i].res.Collector, err)
			}
		}
	}
	return nil
}

// Events returns the number of events the fleet has processed.
func (f *Fleet) Events() int { return f.tape.events }

// FeedBatch resolves each event once against the shared tape and
// applies it to every runner, with every result bit-identical to
// lockstep replay (resolve one event, apply it to every runner in
// config order, resolve the next): the order solo runs see.
//
// It resolves ahead into the fleet's buffer up to the next horizon:
// the first event at which some runner could read shared tape state or
// call out of the runner — an alloc that fires a byte-trigger scavenge
// or a Progress event, a Mark that fires an opportunistic scavenge, or
// the event after which the compaction cadence check is due. The
// events before the horizon read nothing shared (each resolved event
// carries its own live bytes), so they are applied as one run (see
// applyRun). The horizon event is then applied to every runner one
// after another, in config order, and compaction runs if due. So
// policy Boundary and Observe calls, probe callbacks and compaction
// all happen in lockstep order, on the caller's goroutine. The batch
// end, a full buffer and a resolve error also end a run; on a
// validation error, every runner has applied exactly the events before
// the offending one — the fleet stays consistent, and the error is
// what Runner.Feed would have returned for that event.
//
//dtbvet:hotpath one call per replay batch: resolve once, apply N times
func (f *Fleet) FeedBatch(events []trace.Event) error {
	if f.finished {
		return errFeedAfterFinish
	}
	if len(f.runners) == 0 {
		return nil
	}
	tp, buf := f.tape, f.buf
	n := 0
	allocLeft, markLeft := f.headroom()
	for i := range events {
		ev := &buf[n]
		if err := tp.resolve(events[i], ev); err != nil {
			f.applyRun(buf[:n])
			return err
		}
		horizon := false
		switch ev.kind {
		case trace.KindAlloc:
			if ev.size >= allocLeft {
				horizon = true
			} else {
				allocLeft -= ev.size
			}
			markLeft -= min(markLeft, ev.size)
		case trace.KindMark:
			horizon = markLeft == 0
		case trace.KindFree, trace.KindPtrWrite:
		default:
		}
		// Event-count cadence: compaction never moves ordinals between
		// a resolve and its applies, and the compaction schedule — hence
		// the checkpoint watermark — is independent of batch and run
		// boundaries.
		due := tp.compact && tp.events-tp.lastCompactCheck >= tp.checkEvery
		if !horizon && !due {
			if n++; n == len(buf) {
				f.applyRun(buf)
				n = 0
			}
			continue
		}
		f.applyRun(buf[:n])
		for _, r := range f.runners {
			r.apply(buf[n : n+1])
		}
		// Only scavenges move log cursors, and they run only here.
		tp.trimDeaths(f.runners, false)
		if ev.kind == trace.KindAlloc || ev.kind == trace.KindFree {
			f.sampleInstr = ev.instr
		}
		if due {
			tp.maybeCompact(f.runners)
		}
		n = 0
		allocLeft, markLeft = f.headroom()
	}
	f.applyRun(buf[:n])
	return nil
}

// headroom bounds how far the fleet can resolve ahead from the
// runners' current state: an alloc of at least allocLeft bytes (the
// allocation since the last horizon included) may fire some runner's
// byte trigger or Progress interval, and a Mark once markLeft bytes
// have been allocated may fire an opportunistic scavenge. The bounds
// are conservative: a horizon that fires nothing is applied event by
// event all the same.
func (f *Fleet) headroom() (allocLeft, markLeft uint64) {
	allocLeft, markLeft = math.MaxUint64, math.MaxUint64
	for _, r := range f.runners {
		if r.isPolicy {
			allocLeft = min(allocLeft, r.cfg.TriggerBytes-min(r.cfg.TriggerBytes, r.sinceTrigger))
		}
		if r.opportunistic {
			half := r.cfg.TriggerBytes / 2
			markLeft = min(markLeft, half-min(half, r.sinceTrigger))
		}
		if r.hasProbe {
			allocLeft = min(allocLeft, r.cfg.ProgressBytes-min(r.cfg.ProgressBytes, r.sinceProgress))
		}
	}
	return allocLeft, markLeft
}

// runSummary is what every summarizing runner needs to know about a
// run: the same for all of them, computed once per run. Memory
// statistic intervals run between allocs and frees, so the first one
// starts at t0, the last alloc or free before the run.
type runSummary struct {
	events    int
	lastInstr uint64
	// clock0 and clock are the allocation clock before and after the
	// run; their difference is the bytes it allocated.
	clock0, clock core.Time
	// The run's allocs took the contiguous ordinals firstOrd,
	// firstOrd+1, …: compaction, which rebases ordinals, runs only at
	// horizons.
	firstOrd int32
	allocs   int
	// t0 and t are the instructions of the last alloc or free before
	// the run and of the last one by its end (t0 if it has none).
	// aHi·2^64 + aLo is A = Σ dt_i·clock_{i−1} over the run's allocs
	// and frees, where dt_i is the instructions since the previous
	// alloc or free and clock_{i−1} the clock before the i'th (clock_0
	// = clock0). A runner whose memory-in-use is the clock minus a
	// constant off over the run has the value integral A − off·(t−t0).
	t0, t    uint64
	aHi, aLo uint64
}

// summarize computes run's summary and advances sampleInstr past it.
//
//dtbvet:hotpath one call per run between horizons
func (f *Fleet) summarize(run []resolved) runSummary {
	first := &run[0]
	clock := first.clock
	if first.kind == trace.KindAlloc {
		clock = core.TimeAt(clock.Bytes() - first.size)
	}
	s := runSummary{events: len(run), lastInstr: run[len(run)-1].instr, clock0: clock, t0: f.sampleInstr}
	t := f.sampleInstr
	for k := range run {
		ev := &run[k]
		if ev.kind != trace.KindAlloc && ev.kind != trace.KindFree {
			continue
		}
		if ev.kind == trace.KindAlloc {
			if s.allocs == 0 {
				s.firstOrd = ev.ord
			}
			s.allocs++
		}
		hi, lo := bits.Mul64(ev.instr-t, clock.Bytes())
		var carry uint64
		s.aLo, carry = bits.Add64(s.aLo, lo, 0)
		s.aHi += hi + carry
		t, clock = ev.instr, ev.clock
	}
	s.t, s.clock = t, clock
	f.sampleInstr = t
	return s
}

// applyRun applies a run of resolved events that fires no scavenge and
// no Progress event to every runner: from the run's summary where the
// runner takes it, else event by event. Runners read nothing shared
// during a run, so the order among them is unobservable; config order
// keeps it fixed all the same. A fleet that applies every run event by
// event never reads a summary, so it skips computing one.
//
//dtbvet:hotpath one call per run between horizons
func (f *Fleet) applyRun(run []resolved) {
	if len(run) == 0 {
		return
	}
	if f.perEvent {
		for _, r := range f.runners {
			r.apply(run)
		}
		return
	}
	s := f.summarize(run)
	for _, r := range f.runners {
		if !r.summarizes || !r.applySummary(&s) {
			r.apply(run)
		}
	}
}

// applySummary applies a run to a runner with no per-event state in
// O(1), beyond the objs fill on a sweeping runner. Between horizons no
// scavenge runs, so the runner's bytes in use grow by exactly the
// clock's growth: its memory is the clock minus off = clock0 − inUse
// for a policy runner, the clock itself for NoGC, and the Live
// baseline keeps no memory statistic. It returns false, having changed
// nothing, when the memory statistic cannot take the run's sums
// exactly (see stats.Weighted.ObserveRun); the caller then applies the
// run event by event.
//
//dtbvet:hotpath one call per summarizing runner per run
func (r *Runner) applySummary(s *runSummary) bool {
	if r.cfg.Mode != ModeLive {
		var off uint64
		if r.isPolicy {
			off = s.clock0.Bytes() - r.inUse
		}
		hi, lo := bits.Mul64(off, s.t-s.t0)
		lo, borrow := bits.Sub64(s.aLo, lo, 0)
		hi, _ = bits.Sub64(s.aHi, hi, borrow)
		if !r.memStat.ObserveRun(s.t0, s.clock0.Bytes()-off, s.t, s.clock.Bytes()-off, hi, lo) {
			return false
		}
	}
	grown := s.clock.Sub(s.clock0)
	r.inUse += grown
	r.sinceTrigger += grown
	if r.hasProbe {
		r.sinceProgress += grown
	}
	r.clock = s.clock
	r.nEvents += s.events
	r.lastInstr = s.lastInstr
	if r.sweeps && s.allocs > 0 {
		n := len(r.objs)
		objs := slices.Grow(r.objs, s.allocs)[:n+s.allocs]
		for j := range objs[n:] {
			objs[n+j] = s.firstOrd + int32(j)
		}
		r.objs = objs
	}
	return true
}

// Finish closes every runner and returns their Results in config
// order. It is idempotent.
func (f *Fleet) Finish() []*Result {
	f.finished = true
	results := make([]*Result, len(f.runners))
	for i, r := range f.runners {
		results[i] = r.Finish()
	}
	return results
}

// Check resolves events against a fresh tape with no runners, which
// compacts as a replay's would, and returns the first trace defect a
// replay would report, with the same text (clock regressions,
// duplicate allocations, double frees, frees of unknown objects,
// unknown kinds), or nil. Every replay of a trace that passes it gets
// past resolve. Unlike trace.Validate, it accepts pointer stores that
// name dead or unknown objects, which replays treat as touching
// nothing.
func Check(events []trace.Event) error {
	tp := newTape()
	tp.compact = true
	var ev resolved
	for _, e := range events {
		if err := tp.resolve(e, &ev); err != nil {
			return err
		}
		if tp.events-tp.lastCompactCheck >= tp.checkEvery {
			tp.maybeCompact(nil)
		}
	}
	return nil
}

// Run simulates one collector over a complete in-memory trace on a
// solo runner, which applies one event at a time — the per-event
// reference path the resolving-ahead fleet is diffed against. The
// trace must be well-formed; Run reports the first inconsistency it
// hits as an error.
func Run(events []trace.Event, cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.solo.FeedBatch(events); err != nil {
		return nil, err
	}
	return r.Finish(), nil
}

// RunReader simulates a collector over a streamed trace on a solo
// runner, decoding it in chunks with Reader.ReadBatch and feeding each
// chunk: memory use is bounded by the heap model and the tape's
// per-object bookkeeping, not the trace length. The events decoded
// before a decode error are fed first, so a trace defect among them is
// the error reported.
func RunReader(rd *trace.Reader, cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	chunk := make([]trace.Event, fleetRunEvents)
	for {
		n, rerr := rd.ReadBatch(chunk)
		if err := r.solo.FeedBatch(chunk[:n]); err != nil {
			return nil, err
		}
		if rerr == io.EOF {
			return r.Finish(), nil
		}
		if rerr != nil {
			return nil, rerr
		}
	}
}
