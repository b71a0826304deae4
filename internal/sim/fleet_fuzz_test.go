package sim_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/audit"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// The fuzz stream format turns arbitrary bytes into an event stream,
// valid or not. It is a sequence of records: an op byte, then a
// zigzag-varint instruction delta (a negative delta regresses the
// clock), then the event's fields as varints.
//
//   - op&7 == 1, alloc: a size (taken modulo maxFuzzSize) and a
//     zigzag step from the next fresh ID (a negative step reuses an
//     ID).
//   - op&7 == 2 or 3, free or pointer write: how far back from the
//     newest fresh ID the object is (past the oldest, the ID is
//     unknown).
//   - op&7 == 4, mark.
//   - any other op: an event of kind op>>3 (mostly an unknown kind;
//     kind 1 re-allocates the newest ID) naming the newest ID.
//
// A record cut short ends the stream, and so does the maxFuzzEvents'th
// event. The caps keep one execution cheap: with a one-byte trigger
// every alloc scavenges, so a run costs events × live objects, and
// the vmem model pages each survivor in twice per scavenge. Paper
// traces' sizes (at most 8 KB) stay below maxFuzzSize.
const (
	maxFuzzSize   = 1 << 14
	maxFuzzEvents = 1 << 9
)

// decodeFuzzEvents decodes a fuzz stream.
func decodeFuzzEvents(data []byte) []trace.Event {
	var events []trace.Event
	var instr uint64
	next := trace.ObjectID(1)
	for len(data) > 0 && len(events) < maxFuzzEvents {
		op := data[0]
		delta, n := binary.Varint(data[1:])
		if n <= 0 {
			break
		}
		data = data[1+n:]
		instr += uint64(delta)
		var e trace.Event
		switch op & 7 {
		case 1:
			size, n := binary.Uvarint(data)
			if n <= 0 {
				return events
			}
			step, m := binary.Varint(data[n:])
			if m <= 0 {
				return events
			}
			data = data[n+m:]
			id := next + trace.ObjectID(step)
			if id >= next {
				next = id + 1
			}
			e = trace.Alloc(id, size%maxFuzzSize, instr)
		case 2, 3:
			back, n := binary.Uvarint(data)
			if n <= 0 {
				return events
			}
			data = data[n:]
			id := next - 1 - trace.ObjectID(back)
			if op&7 == 2 {
				e = trace.Free(id, instr)
			} else {
				e = trace.PtrWrite(id, 0, trace.NilObject, instr)
			}
		case 4:
			e = trace.Mark("", instr)
		default:
			e = trace.Event{Kind: trace.Kind(op >> 3), ID: next - 1, Size: 8, Instr: instr}
		}
		events = append(events, e)
	}
	return events
}

// encodeFuzzEvents is decodeFuzzEvents' inverse for well-formed traces
// with sizes below maxFuzzSize: it turns the seed corpus's real
// traces into fuzz streams. Labels, fields and targets are dropped;
// the simulator reads none of them.
func encodeFuzzEvents(events []trace.Event) []byte {
	var b []byte
	var instr uint64
	next := trace.ObjectID(1)
	for _, e := range events {
		var op byte
		switch e.Kind {
		case trace.KindAlloc:
			op = 1
		case trace.KindFree:
			op = 2
		case trace.KindPtrWrite:
			op = 3
		case trace.KindMark:
			op = 4
		default:
			op = byte(e.Kind) << 3
		}
		b = append(b, op)
		b = binary.AppendVarint(b, int64(e.Instr-instr))
		instr = e.Instr
		switch e.Kind {
		case trace.KindAlloc:
			b = binary.AppendUvarint(b, e.Size)
			b = binary.AppendVarint(b, int64(e.ID-next))
			if e.ID >= next {
				next = e.ID + 1
			}
		case trace.KindFree, trace.KindPtrWrite:
			b = binary.AppendUvarint(b, uint64(next-1-e.ID))
		case trace.KindMark:
		default:
		}
	}
	return b
}

// fuzzConfigs builds the fleet's collector set from the fuzzed knobs:
// mask picks from a pool covering pure and adaptive policies, tenuring
// and reclaiming ones, a boundary that oscillates (untenuring garbage),
// the vmem model and both baselines (no bit set means all of them).
func fuzzConfigs(mask uint16, trigger, progress uint16, opportunistic bool) []sim.Config {
	tb := 1 + uint64(trigger)*16
	pool := []sim.Config{
		{Policy: core.Full{}},
		{Policy: core.Fixed{K: 1}},
		{Policy: core.Fixed{K: 4}},
		{Policy: core.DtbMem{MemMax: 4 * tb}},
		{Policy: core.FeedMed{TraceMax: tb/2 + 1}},
		{Policy: core.DtbFM{TraceMax: tb/2 + 1}},
		{Policy: core.Bandit{Eps: 0.1}, PolicySeed: 3},
		{Policy: core.Gradient{TraceMax: tb/2 + 1}, PolicySeed: 3},
		{Policy: core.Full{}, PageFrames: 4, RecordCurve: true},
		{Mode: sim.ModeNoGC},
		{Mode: sim.ModeLive},
		{Policy: sim.ScriptedBoundary{}},
	}
	sel := mask & (1<<len(pool) - 1)
	if sel == 0 {
		sel = 1<<len(pool) - 1
	}
	var cfgs []sim.Config
	for i, cfg := range pool {
		if sel&(1<<i) == 0 {
			continue
		}
		cfg.TriggerBytes = tb
		cfg.ProgressBytes = uint64(progress) * 64
		cfg.Opportunistic = opportunistic
		cfg.Label = fmt.Sprintf("fuzz/%d", i)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// fuzzRun is one side's outcome: per-config results and telemetry
// lines, the first feed error, and how many events were accepted.
type fuzzRun struct {
	res    []*sim.Result
	tel    [][]string
	err    error
	events int
}

// withTelemetry gives every config its own telemetry stream when probe
// is on.
func withTelemetry(cfgs []sim.Config, probe bool) ([]sim.Config, []*bytes.Buffer) {
	out := append([]sim.Config(nil), cfgs...)
	bufs := make([]*bytes.Buffer, len(cfgs))
	for i := range out {
		bufs[i] = &bytes.Buffer{}
		if probe {
			out[i].Probe = sim.NewTelemetryWriter(bufs[i])
		}
	}
	return out, bufs
}

func lines(b *bytes.Buffer) []string {
	s := strings.TrimSuffix(b.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// referenceRun is the audit oracle's independent leg: one solo runner
// per config, fed event by event, every boundary query on the
// reference tail scan and the tape never compacted.
func referenceRun(t *testing.T, events []trace.Event, cfgs []sim.Config, probe bool) fuzzRun {
	cfgs, bufs := withTelemetry(cfgs, probe)
	run := fuzzRun{events: len(events)}
	for i, cfg := range cfgs {
		cfg.ReferenceScan = true
		cfg.UncompactedTape = true
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		for j, e := range events {
			if ferr := r.Feed(e); ferr != nil {
				if i == 0 {
					run.err, run.events = ferr, j
				}
				break
			}
		}
		run.res = append(run.res, r.Finish())
		run.tel = append(run.tel, lines(bufs[i]))
	}
	return run
}

// fleetRun is the fast path: one compacting fleet over every config,
// its runs cut at 16 events and applied from their summaries unless
// perEvent is set, fed in the fuzzed batch shape.
func fleetRun(t *testing.T, events []trace.Event, cfgs []sim.Config, probe bool, cuts []byte, perEvent bool) fuzzRun {
	cfgs, bufs := withTelemetry(cfgs, probe)
	fleet, err := sim.NewFleet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	sim.TuneRuns(fleet, !perEvent)
	sim.SetCompactionCadence(fleet, 16)
	var run fuzzRun
	for lo, c := 0, 0; lo < len(events); c++ {
		n := len(events) - lo
		if len(cuts) > 0 {
			n = min(n, 1+int(cuts[c%len(cuts)]))
		}
		if run.err = fleet.FeedBatch(events[lo : lo+n]); run.err != nil {
			break
		}
		lo += n
	}
	run.events = fleet.Events()
	run.res = fleet.Finish()
	for _, b := range bufs {
		run.tel = append(run.tel, lines(b))
	}
	return run
}

// fuzzSeeds are small paper-workload and churn traces as fuzz
// streams. Most number their objects consecutively, so the fleet's
// tape resolves them by arithmetic while the reference leg's
// (ReferenceScan) uses its id map. The last three do not: a windowed
// trace, whose survivors' gapped IDs move the fleet's tape onto its
// map at the second alloc; a churn whose one gap comes after
// compaction has retired a prefix, so the map is built from the
// retained IDs; and a churn whose IDs wrap past 2^64−1, which stays
// on the arithmetic arm.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, p := range []workload.Profile{workload.Cfrac(), workload.Sis(), workload.Espresso1()} {
		events, err := p.Scale(0.002).Generate()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, encodeFuzzEvents(events))
	}
	seeds = append(seeds, encodeFuzzEvents(seedChurn(300, 64, func(i int) trace.ObjectID { return trace.ObjectID(i) })))

	// A window's survivors keep their original, gapped IDs.
	events, err := workload.Ghost1().Scale(0.002).Generate()
	if err != nil {
		tb.Fatal(err)
	}
	windowed, err := trace.Window(events, events[len(events)/2].Instr, events[len(events)-1].Instr)
	if err != nil {
		tb.Fatal(err)
	}
	// Objects of ~4 KB fill a 64 KB birth bucket every 16 allocs, so
	// dead buckets, and then retired prefixes, come early.
	gapped := seedChurn(200, 4096, func(i int) trace.ObjectID {
		if i >= 150 {
			return trace.ObjectID(i + 7)
		}
		return trace.ObjectID(i)
	})
	wrapping := seedChurn(200, 4096, func(i int) trace.ObjectID { return trace.ObjectID(i) - 150 })
	return append(seeds, encodeFuzzEvents(windowed), encodeFuzzEvents(gapped), encodeFuzzEvents(wrapping))
}

// seedChurn is pure churn over n objects: object i, numbered id(i),
// has size base+i%7*32 and is freed once object i+12 is born, with a
// mark every 25 objects and a pointer write every 5.
func seedChurn(n int, base uint64, id func(i int) trace.ObjectID) []trace.Event {
	var churn []trace.Event
	for i := 1; i <= n; i++ {
		churn = append(churn, trace.Alloc(id(i), base+uint64(i%7*32), uint64(i*40)))
		if i%25 == 0 {
			churn = append(churn, trace.Mark("phase", uint64(i*40+1)))
		}
		if i%5 == 0 {
			churn = append(churn, trace.PtrWrite(id(i), 0, trace.NilObject, uint64(i*40+1)))
		}
		if i > 12 {
			churn = append(churn, trace.Free(id(i-12), uint64(i*40+2)))
		}
	}
	return churn
}

// TestFuzzStreamRoundTrip: the seed corpus is the real traces it
// claims to be — decoding an encoded trace gives back every event.
func TestFuzzStreamRoundTrip(t *testing.T) {
	p := workload.Sis().Scale(0.002)
	events, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	got := decodeFuzzEvents(encodeFuzzEvents(events))
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, encoded %d", len(got), len(events))
	}
	for i, e := range events {
		g := got[i]
		if g.Kind != e.Kind || g.ID != e.ID || g.Size != e.Size || g.Instr != e.Instr {
			t.Fatalf("event %d: decoded %+v, encoded %+v", i, g, e)
		}
	}
}

// traceError returns err as the *sim.TraceError every trace defect
// must be.
func traceError(t *testing.T, err error) *sim.TraceError {
	t.Helper()
	var te *sim.TraceError
	if !errors.As(err, &te) {
		t.Fatalf("error %q (%T) is not a *sim.TraceError", err, err)
	}
	return te
}

// FuzzFleetVsReference is the differential fuzz target of the replay
// stack: fuzz bytes decode to an event stream, valid or not, and a
// compacting fleet fed in fuzzed batches — applying its runs from
// their summaries, or event by event — must match the audit oracle's
// solo reference leg (ReferenceScan, UncompactedTape, fed event by
// event) exactly: every Result under audit.DiffResults, every
// telemetry stream under audit.DiffTelemetry, and on bad input the
// same error at the same event — which sim.Check, resolving with no
// runners at all, must report too.
func FuzzFleetVsReference(f *testing.F) {
	for i, seed := range fuzzSeeds(f) {
		f.Add(seed, []byte{7, 200, 33}, i%2 == 1, uint16(64), true, uint16(0), true, uint16(0))
		f.Add(seed, []byte{255}, i%2 == 0, uint16(8), false, uint16(16), false, uint16(0x0611))
		f.Add(seed, []byte{}, i%2 == 1, uint16(200), true, uint16(40), true, uint16(0x00f1))
		// Only collectors that reclaim everything dead, so compaction
		// retires prefixes: before a sequence break, or across a wrap.
		f.Add(seed, []byte{16, 5}, i%2 == 0, uint16(64), false, uint16(0), i%2 == 1, uint16(0x0701))
		// Tight-budget FEEDMED and DTBFM tenure most deaths; the
		// oscillating boundary untenures them in bulk.
		f.Add(seed, []byte{9, 31}, i%2 == 1, uint16(32), false, uint16(0), false, uint16(0x0830))
	}
	// Instruction gaps up to 2^34 carry the memory integrals past 2^53,
	// where summary apply must hand runs back to per-event apply.
	f.Add(encodeFuzzEvents(wideGapTrace(1, 400, maxFuzzSize-1)), []byte{40, 9}, false, uint16(100), false, uint16(0), false, uint16(0))
	f.Fuzz(func(t *testing.T, stream, cuts []byte, perEvent bool, trigger uint16, opportunistic bool, progress uint16, probe bool, mask uint16) {
		events := decodeFuzzEvents(stream)
		cfgs := fuzzConfigs(mask, trigger, progress, opportunistic)
		want := referenceRun(t, events, cfgs, probe)
		got := fleetRun(t, events, cfgs, probe, cuts, perEvent)

		switch {
		case (got.err == nil) != (want.err == nil):
			t.Fatalf("fleet error %v, reference error %v", got.err, want.err)
		case got.err != nil && *traceError(t, got.err) != *traceError(t, want.err):
			t.Fatalf("fleet error %q, reference error %q", got.err, want.err)
		case got.events != want.events:
			t.Fatalf("fleet accepted %d events, reference %d", got.events, want.events)
		}
		if err := sim.Check(events); (err == nil) != (want.err == nil) || err != nil && *traceError(t, err) != *traceError(t, want.err) {
			t.Fatalf("Check error %v, reference error %v", err, want.err)
		}
		for i := range cfgs {
			for _, d := range audit.DiffResults(got.res[i], want.res[i]) {
				t.Errorf("%s: %s", cfgs[i].Label, d)
			}
			for _, d := range audit.DiffTelemetry(got.tel[i], want.tel[i]) {
				t.Errorf("%s telemetry: %s", cfgs[i].Label, d)
			}
		}
	})
}
