package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// compactingChurnTrace is pure churn — no permanent objects — so the
// dead prefix grows without bound and default-threshold compaction
// fires on its own. Marks and pointer writes ride along so every
// event kind crosses a compacted tape.
func compactingChurnTrace(n int) []trace.Event {
	events := churnTrace(n, 256, 12, 0)
	out := make([]trace.Event, 0, len(events)+len(events)/8)
	for i, e := range events {
		out = append(out, e)
		if i%16 == 7 && e.Kind == trace.KindAlloc {
			out = append(out, trace.PtrWrite(e.ID, 0, e.ID, e.Instr))
		}
		if i%64 == 63 {
			out = append(out, trace.Mark("m", e.Instr))
		}
	}
	return out
}

// aggressive drops the tape's compaction thresholds to the floor so
// small traces retire and trim on every cadence check — the
// amortization minimums are a cost knob, not a correctness one, and
// tests that want many compaction cycles set them aside.
func aggressive(tp *tape) {
	tp.checkEvery = 1
	tp.minRetire = 1
	tp.minTrimBuckets = 1
}

// reclaimingMatrix covers the per-runner state variants whose heaps
// actually drain: retirement needs every runner's floor to advance,
// so the policies here all sweep their dead storage eventually
// (tenuring policies like FIXED pin the floor forever — see
// TestTenuringPolicyPinsRetirement).
func reclaimingMatrix() []Config {
	return []Config{
		{Policy: core.Full{}, TriggerBytes: 10 * kb},
		{Policy: core.DtbFM{TraceMax: 1 << 20}, TriggerBytes: 10 * kb},   // budget covers the heap: the boundary can sweep low
		{Policy: core.FeedMed{TraceMax: 1 << 20}, TriggerBytes: 10 * kb}, // ditto for feedback mediation
		{Policy: core.Full{}, TriggerBytes: 10 * kb, Opportunistic: true},
		{Policy: core.Full{}, TriggerBytes: 10 * kb, PageFrames: 8, RecordCurve: true},
		{Mode: ModeNoGC},
		{Mode: ModeLive},
	}
}

// TestFleetCompactionMatchesUncompacted is the package-level half of
// the compaction oracle: a matrix of reclaiming runners on one
// compacting fleet must produce results bit-identical
// (reflect.DeepEqual, histories and curves included) to the same
// matrix with the tape pinned, and to solo uncompacted runs — while
// actually compacting, which the tape stats must confirm.
func TestFleetCompactionMatchesUncompacted(t *testing.T) {
	events := compactingChurnTrace(30000)
	cfgs := reclaimingMatrix()

	compacting, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := compacting.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	got := compacting.Finish()

	st := compacting.TapeStats()
	if st.RetiredObjects == 0 {
		t.Fatalf("default-threshold compaction never retired anything over %d events: stats %+v", len(events), st)
	}
	if st.TrimmedBuckets == 0 {
		t.Errorf("compaction retired %d objects but trimmed no buckets: stats %+v", st.RetiredObjects, st)
	}
	if st.RetainedObjects+int(st.RetiredObjects) != countAllocs(events) {
		t.Errorf("retained %d + retired %d != %d objects allocated", st.RetainedObjects, st.RetiredObjects, countAllocs(events))
	}

	pinnedCfgs := append([]Config{}, cfgs...)
	pinnedCfgs[0].UncompactedTape = true // one config pins the whole shared tape
	pinned, err := NewFleet(pinnedCfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	want := pinned.Finish()
	if ps := pinned.TapeStats(); ps.RetiredObjects != 0 {
		t.Fatalf("UncompactedTape fleet retired %d objects", ps.RetiredObjects)
	}

	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: compacted fleet result differs from uncompacted\ngot  %+v\nwant %+v",
				want[i].Collector, got[i], want[i])
		}
		soloCfg := cfgs[i]
		soloCfg.UncompactedTape = true
		if solo := mustRun(t, events, soloCfg); !reflect.DeepEqual(got[i], solo) {
			t.Errorf("%s: compacted fleet result differs from uncompacted solo run", solo.Collector)
		}
	}
}

// TestTenuringPolicyPinsRetirement documents the floor contract with
// the stock matrix: collectors that tenure garbage permanently
// (FIXED never re-threatens the old generation; a tight DtbFM budget
// keeps the boundary high) hold dead objects in their heaps forever,
// and those objects pin the tape — a future scavenge with a lower
// boundary would need their sizes. Retirement stays at zero, bucket
// trimming (which only needs dead cohorts, not drained heaps) still
// engages, and results remain bit-identical to the pinned tape.
func TestTenuringPolicyPinsRetirement(t *testing.T) {
	events := compactingChurnTrace(15000)
	cfgs := fleetMatrix()

	compacting, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := compacting.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	got := compacting.Finish()
	st := compacting.TapeStats()
	if st.RetiredObjects != 0 {
		t.Errorf("a fleet with tenuring collectors retired %d objects: some floor ignored tenured garbage", st.RetiredObjects)
	}
	if st.TrimmedBuckets == 0 {
		t.Errorf("bucket trimming should not depend on runner floors: stats %+v", st)
	}

	pinnedCfgs := append([]Config{}, cfgs...)
	pinnedCfgs[0].UncompactedTape = true
	pinned, err := NewFleet(pinnedCfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	want := pinned.Finish()
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: trimmed-tape result differs from pinned tape", want[i].Collector)
		}
	}
}

func countAllocs(events []trace.Event) int {
	n := 0
	for _, e := range events {
		if e.Kind == trace.KindAlloc {
			n++
		}
	}
	return n
}

// TestSoloCompactionMatchesUncompacted drives the solo Feed/FeedBatch
// hooks with floor thresholds — many small retire/trim cycles — and
// pins the result to the uncompacted run. The boundary query is also
// re-checked against the naive scan on the compacted tape, since the
// bucket suffix is rebased after every trim.
func TestSoloCompactionMatchesUncompacted(t *testing.T) {
	// 20 KB objects spread births across many 64 KB buckets, so even a
	// short trace crosses plenty of epochs. Full reclaims every dead
	// object at each scavenge, so the runner floor tracks the churn.
	events := churnTrace(3000, 20*kb, 7, 0)
	cfg := tinyConfig(core.Full{})

	uncfg := cfg
	uncfg.UncompactedTape = true
	want := mustRun(t, events, uncfg)

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aggressive(r.tape)
	for i, e := range events {
		if err := r.Feed(e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if i%271 == 0 {
			var q core.Time
			if c := r.tape.clock.Bytes(); c > 50*kb {
				q = core.TimeAt(c - 50*kb)
			}
			if got, naive := r.tape.liveBytesBornAfter(q), r.tape.liveBytesBornAfterNaive(q); got != naive {
				t.Fatalf("event %d: compacted liveBytesBornAfter(%d) = %d, naive says %d", i, q.Bytes(), got, naive)
			}
		}
	}
	if st := r.TapeStats(); st.RetiredObjects == 0 || st.TrimmedBuckets == 0 {
		t.Fatalf("aggressive compaction did not engage: stats %+v", st)
	}
	if got := r.Finish(); !reflect.DeepEqual(got, want) {
		t.Errorf("compacted solo result differs from uncompacted\ngot  %+v\nwant %+v", got, want)
	}
}

// compactedRunner returns a solo runner whose tape has demonstrably
// retired a prefix, for probing how retired IDs behave afterwards.
func compactedRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(Config{Mode: ModeNoGC})
	if err != nil {
		t.Fatal(err)
	}
	aggressive(r.tape)
	if err := r.solo.FeedBatch(churnTrace(500, 20*kb, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if st := r.TapeStats(); st.RetiredObjects == 0 {
		t.Fatalf("setup trace did not trigger retirement: stats %+v", st)
	}
	if r.tape.retired.contains(1) != true {
		t.Fatal("object 1 was not retired by the setup trace")
	}
	return r
}

// TestRetiredIDReuseRejected: compaction deletes retired IDs from the
// index, so duplicate-allocation detection must catch their reuse via
// the retired-ID summary — with the exact error text the uncompacted
// tape produces.
func TestRetiredIDReuseRejected(t *testing.T) {
	r := compactedRunner(t)
	instr := uint64(1 << 20)
	before := r.TapeStats()
	err := r.Feed(trace.Alloc(1, 64, instr))
	if err == nil {
		t.Fatal("reuse of a retired trace ID accepted as a fresh allocation")
	}
	if !strings.Contains(err.Error(), "duplicate allocation of object 1") {
		t.Fatalf("retired-ID reuse error = %q, want a duplicate-allocation error", err)
	}
	// The failed resolve must leave the tape untouched.
	if after := r.TapeStats(); after != before {
		t.Fatalf("failed alloc mutated the tape: %+v -> %+v", before, after)
	}
}

// TestFreeOfRetiredIDIsDoubleFree: a retired object was dead when it
// left the tape, so freeing its ID again reports the same double-free
// the uncompacted tape would, not "unknown object".
func TestFreeOfRetiredIDIsDoubleFree(t *testing.T) {
	r := compactedRunner(t)
	err := r.Feed(trace.Free(1, uint64(1<<20)))
	if err == nil {
		t.Fatal("free of a retired object accepted")
	}
	if !strings.Contains(err.Error(), "double free of object 1") {
		t.Fatalf("free-of-retired error = %q, want a double-free error", err)
	}
	if err := r.Feed(trace.Free(999999, uint64(1<<20))); err == nil ||
		!strings.Contains(err.Error(), "free of unknown object") {
		t.Fatalf("free of a never-seen object = %v, want unknown-object error", err)
	}
}

// TestPtrWriteToRetiredResolvesUnknown: a pointer store naming a
// retired object must resolve to the unknown ordinal (-1), exactly as
// a store to a never-seen object does — and feeding it must succeed.
func TestPtrWriteToRetiredResolvesUnknown(t *testing.T) {
	r := compactedRunner(t)
	var out resolved
	if err := r.tape.resolve(trace.PtrWrite(1, 0, 2, uint64(1<<20)), &out); err != nil {
		t.Fatalf("ptrwrite to retired object: %v", err)
	}
	if out.ord != -1 {
		t.Fatalf("ptrwrite to retired object resolved to ordinal %d, want -1 (unknown)", out.ord)
	}
}

// TestVmemPtrWriteRetiredEquivalence runs the virtual-memory model
// over a trace that keeps storing into long-dead objects: fault
// counts with compaction (stores resolve to unknown) must equal the
// uncompacted run (stores resolve to a reclaimed, non-present
// ordinal), because retirement requires every runner to have
// reclaimed the object first.
func TestVmemPtrWriteRetiredEquivalence(t *testing.T) {
	churn := churnTrace(4000, 20*kb, 7, 0)
	events := make([]trace.Event, 0, len(churn)+len(churn)/8)
	for i, e := range churn {
		events = append(events, e)
		if i%8 == 3 {
			// Store into object 1, which dies almost immediately: for
			// most of the trace this targets a reclaimed or retired
			// object.
			events = append(events, trace.PtrWrite(1, 0, e.ID, e.Instr))
		}
	}
	cfg := Config{Policy: core.Full{}, TriggerBytes: 40 * kb, PageFrames: 8}
	uncfg := cfg
	uncfg.UncompactedTape = true
	want := mustRun(t, events, uncfg)

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aggressive(r.tape)
	if err := r.solo.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	if st := r.TapeStats(); st.RetiredObjects == 0 {
		t.Fatalf("vmem churn trace did not trigger retirement: stats %+v", st)
	}
	if got := r.Finish(); !reflect.DeepEqual(got, want) {
		t.Errorf("compacted vmem result differs from uncompacted\ngot  %+v\nwant %+v", got, want)
	}
}

// TestTapeOrdinalLimit pins the int32-overflow fix: the tape must
// refuse the allocation that would exceed its ordinal capacity with
// an explicit error instead of wrapping the ordinal — and compaction
// must lift the limit off *total* objects by keeping the retained
// count below it.
func TestTapeOrdinalLimit(t *testing.T) {
	r, err := NewRunner(Config{Mode: ModeNoGC})
	if err != nil {
		t.Fatal(err)
	}
	r.tape.ordLimit = 4
	b := trace.NewBuilder()
	for i := 0; i < 4; i++ {
		b.Advance(10)
		b.Alloc(64)
	}
	// The rejected 5th alloc breaks the ID sequence: the failed resolve
	// must not move the index off its arithmetic arm either.
	ferr := r.solo.FeedBatch(append(b.Events(), trace.Alloc(100, 64, 50)))
	if ferr == nil {
		t.Fatal("5th retained object accepted past an ordinal limit of 4")
	}
	if !strings.Contains(ferr.Error(), "tape ordinal limit") {
		t.Fatalf("overflow error = %q, want a tape-ordinal-limit error", ferr)
	}
	if r.tape.index != nil {
		t.Fatal("rejected non-consecutive alloc moved the index onto its map arm")
	}

	// With compaction retiring the dead prefix, total objects can
	// exceed the limit many times over as long as the retained set
	// stays under it.
	r2, err := NewRunner(Config{Mode: ModeNoGC})
	if err != nil {
		t.Fatal(err)
	}
	aggressive(r2.tape)
	r2.tape.ordLimit = 16
	if err := r2.solo.FeedBatch(churnTrace(400, 20*kb, 3, 0)); err != nil {
		t.Fatalf("churn of 400 objects under a 16-ordinal limit: %v", err)
	}
	if st := r2.TapeStats(); st.RetainedObjects > 16 || st.RetiredObjects < 300 {
		t.Fatalf("expected a compacting tape to stay under the limit: stats %+v", st)
	}
}

// TestMaxBucketsGuard: an allocation whose birth bucket falls outside
// the tape's representable bucket range must fail loudly — the silent
// alternative on 32-bit platforms was index truncation.
func TestMaxBucketsGuard(t *testing.T) {
	tp := newTape()
	tp.maxBuckets = 4
	var out resolved
	if err := tp.resolve(trace.Alloc(1, 64, 1), &out); err != nil {
		t.Fatal(err)
	}
	// ID 3 skips 2: the rejected alloc also breaks the ID sequence.
	err := tp.resolve(trace.Alloc(3, 5<<birthBucketShift, 2), &out)
	if err == nil {
		t.Fatal("allocation past the bucket range accepted")
	}
	if !strings.Contains(err.Error(), "birth bucket") {
		t.Fatalf("bucket-range error = %q", err)
	}
	if tp.events != 1 || len(tp.sizes) != 1 {
		t.Fatalf("failed alloc mutated the tape: %d events, %d ordinals", tp.events, len(tp.sizes))
	}
	if tp.index != nil {
		t.Fatal("rejected non-consecutive alloc moved the index onto its map arm")
	}
}

// TestLiveBytesBornAfterFinalBucket exercises the top of the clock
// space, where the old per-item scan's computed bucket end
// ((b+1)<<shift) wraps to zero and skips the boundary's own bucket.
// The bucket-identity scan must keep agreeing with the naive
// reference right up to the final bucket.
func TestLiveBytesBornAfterFinalBucket(t *testing.T) {
	tp := newTape()
	// Place the tape just below the top of the clock: a trimmed-ahead
	// bucket base keeps the relative index tiny, exactly as a
	// long-compacted tape would look.
	start := core.TimeAt(math.MaxUint64 - 3<<birthBucketShift)
	tp.clock = start
	tp.bucketBase = birthBucket(start)
	var out resolved
	ids := trace.ObjectID(1)
	alloc := func(size uint64) {
		t.Helper()
		if err := tp.resolve(trace.Alloc(ids, size, 1), &out); err != nil {
			t.Fatalf("alloc at clock %d: %v", tp.clock.Bytes(), err)
		}
		ids++
	}
	alloc(1 << birthBucketShift) // lands two buckets below the top
	alloc(1 << birthBucketShift)
	alloc(1 << (birthBucketShift - 1)) // straddles into the final bucket
	alloc(100)                         // final bucket of the clock space
	if err := tp.resolve(trace.Free(2, 2), &out); err != nil {
		t.Fatal(err)
	}
	queries := []core.Time{
		start,
		start.Add(1 << birthBucketShift),
		core.TimeAt(math.MaxUint64 - 1<<birthBucketShift), // inside the penultimate bucket
		core.TimeAt(math.MaxUint64 - 200),                 // inside the final bucket
		core.TimeAt(math.MaxUint64 - 1),
		core.TimeAt(math.MaxUint64),
	}
	for _, q := range queries {
		if got, want := tp.liveBytesBornAfter(q), tp.liveBytesBornAfterNaive(q); got != want {
			t.Errorf("liveBytesBornAfter(%d) = %d, naive says %d", q.Bytes(), got, want)
		}
	}
}

// TestResolveSteadyStateAllocs pins the compacting resolve path's
// allocation behavior: once a churning tape has reached its retained
// high-water mark, feeding more churn — including the retire and trim
// cycles themselves — must not allocate. Compaction reuses array
// capacity and extends retired-ID spans in place, so the whole replay
// runs at zero steady-state allocations per event.
func TestResolveSteadyStateAllocs(t *testing.T) {
	r, err := NewRunner(Config{Mode: ModeNoGC})
	if err != nil {
		t.Fatal(err)
	}
	tp := r.tape
	tp.checkEvery = 64
	tp.minRetire = 64
	tp.minTrimBuckets = 1
	events := churnTrace(6000, 20*kb, 9, 0)
	warm, rest := events[:2000], events[2000:]
	if err := r.solo.FeedBatch(warm); err != nil {
		t.Fatal(err)
	}
	if st := r.TapeStats(); st.RetiredObjects == 0 {
		t.Fatalf("warmup did not compact: stats %+v", st)
	}
	const seg = 200
	next := 0
	allocs := testing.AllocsPerRun(15, func() {
		if next+seg > len(rest) {
			t.Fatal("steady-state segments exhausted")
		}
		if err := r.solo.FeedBatch(rest[next : next+seg]); err != nil {
			t.Fatal(err)
		}
		next += seg
	})
	if allocs != 0 {
		t.Errorf("compacting resolve path allocates %v times per %d-event segment, want 0", allocs, seg)
	}
	if st := r.TapeStats(); st.RetiredIDSpans != 1 {
		t.Errorf("monotone churn produced %d retired ID spans, want 1", st.RetiredIDSpans)
	}
}

// TestCompactionDeterministicAcrossBatchShapes: the cadence counts
// events, not batches, so the same stream fed in any batching must
// land on an identical compaction watermark — the property engine
// checkpoints rely on.
func TestCompactionDeterministicAcrossBatchShapes(t *testing.T) {
	events := compactingChurnTrace(20000)
	var want TapeCompaction
	for i, batch := range []int{1, 7, 4096, len(events)} {
		fleet, err := NewFleet([]Config{tinyConfig(core.Full{}), {Mode: ModeLive}})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(events); lo += batch {
			if err := fleet.FeedBatch(events[lo:min(lo+batch, len(events))]); err != nil {
				t.Fatal(err)
			}
		}
		got := fleet.SnapshotTapeCompaction()
		if got.RetiredOrdinals == 0 {
			t.Fatalf("batch size %d: no compaction over %d events", batch, len(events))
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batch size %d: watermark %+v differs from batch size 1's %+v", batch, got, want)
		}
	}
}

// TestRestoreTapeCompactionVerifies: restoring a watermark is an
// equality check against the live tape — the same fleet state passes,
// a fleet that moved past the snapshot fails.
func TestRestoreTapeCompactionVerifies(t *testing.T) {
	events := compactingChurnTrace(20000)
	fleet, err := NewFleet([]Config{tinyConfig(core.Full{})})
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	if err := fleet.FeedBatch(events[:half]); err != nil {
		t.Fatal(err)
	}
	w := fleet.SnapshotTapeCompaction()
	if err := fleet.RestoreTapeCompaction(w); err != nil {
		t.Fatalf("verifying an untouched fleet against its own watermark: %v", err)
	}
	if err := fleet.FeedBatch(events[half:]); err != nil {
		t.Fatal(err)
	}
	if err := fleet.RestoreTapeCompaction(w); err == nil {
		t.Fatal("a fleet fed past the watermark passed verification")
	}
}

// TestVmemBaselineDisablesCompaction: NoGC/Live runners with the
// virtual-memory model address every ordinal forever, so a fleet
// containing one must not compact — and must still match the pinned
// run exactly.
func TestVmemBaselineDisablesCompaction(t *testing.T) {
	cfgs := []Config{
		tinyConfig(core.Full{}),
		{Mode: ModeNoGC, PageFrames: 8},
	}
	fleet, err := NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.tape.compact {
		t.Fatal("fleet with a vmem baseline left compaction enabled")
	}
	if err := fleet.FeedBatch(compactingChurnTrace(10000)); err != nil {
		t.Fatal(err)
	}
	if st := fleet.TapeStats(); st.RetiredObjects != 0 {
		t.Fatalf("disabled compaction still retired %d objects", st.RetiredObjects)
	}
}

// TestIDSpans exercises the retired-ID summary directly: monotone
// adds collapse to one span, arbitrary orders merge correctly, and
// membership stays exact across gaps.
func TestIDSpans(t *testing.T) {
	var s idSpans
	for id := trace.ObjectID(10); id < 20; id++ {
		s.add(id)
	}
	if len(s) != 1 || s[0] != (IDSpan{Lo: 10, Hi: 19}) {
		t.Fatalf("monotone adds built %+v, want one span [10,19]", s)
	}
	s.add(25)
	s.add(23)
	s.add(24) // bridges 23 and 25
	if len(s) != 2 || s[1] != (IDSpan{Lo: 23, Hi: 25}) {
		t.Fatalf("gap adds built %+v, want [10,19] [23,25]", s)
	}
	s.add(9) // extends [10,19] downward
	if len(s) != 2 || s[0] != (IDSpan{Lo: 9, Hi: 19}) {
		t.Fatalf("downward extension built %+v", s)
	}
	for _, tc := range []struct {
		id trace.ObjectID
		in bool
	}{{8, false}, {9, true}, {15, true}, {19, true}, {20, false}, {22, false}, {23, true}, {25, true}, {26, false}} {
		if got := s.contains(tc.id); got != tc.in {
			t.Errorf("contains(%d) = %v, want %v (spans %+v)", tc.id, got, tc.in, s)
		}
	}
}
