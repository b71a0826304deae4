package dtbgc

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// Policy selects the threatening boundary before each scavenge; it is
// the axis along which the paper's collectors differ (Table 1).
type Policy = core.Policy

// Event is one record of an allocation trace.
type Event = trace.Event

// Result carries the metrics of one simulated run.
type Result = sim.Result

// Machine is the simulated hardware model (CPU speed and trace rate).
type Machine = sim.Machine

// Workload is a synthetic program profile that generates allocation
// traces.
type Workload = workload.Profile

// PaperMachine returns the paper's machine model: 10 MIPS with the
// collector tracing 500 KB per second.
func PaperMachine() Machine { return sim.PaperMachine() }

// FullPolicy returns the non-generational collector: every scavenge
// traces all storage and reclaims all garbage (TB_n = 0).
func FullPolicy() Policy { return core.Full{} }

// FixedPolicy returns a classic generational collector that tenures
// objects after they survive k scavenges (TB_n = t_{n-k}). k = 1 and
// k = 4 are the paper's FIXED1 and FIXED4.
func FixedPolicy(k int) Policy { return core.Fixed{K: k} }

// FeedMedPolicy returns Ungar & Jackson's Feedback Mediation collector
// with the given per-scavenge trace budget in bytes.
func FeedMedPolicy(traceMaxBytes uint64) Policy { return core.FeedMed{TraceMax: traceMaxBytes} }

// DtbFMPolicy returns the paper's pause-time-constrained dynamic
// threatening boundary collector with the given per-scavenge trace
// budget in bytes.
func DtbFMPolicy(traceMaxBytes uint64) Policy { return core.DtbFM{TraceMax: traceMaxBytes} }

// PausePolicy returns the DTBFM collector tuned for a maximum pause
// time on the paper's machine: the pause converts to a trace budget at
// the machine's trace rate ("a user-specified maximum pause-time is
// easily converted to Trace_max", §4.1).
func PausePolicy(maxPause time.Duration) Policy {
	return PausePolicyOn(maxPause, PaperMachine())
}

// PausePolicyOn is PausePolicy for an explicit machine model.
func PausePolicyOn(maxPause time.Duration, m Machine) Policy {
	budget := uint64(maxPause.Seconds() * m.TraceBytesPer)
	return core.DtbFM{TraceMax: budget}
}

// MemoryPolicy returns the paper's memory-constrained dynamic
// threatening boundary collector (DTBMEM) with the given maximum
// memory use in bytes.
func MemoryPolicy(maxBytes uint64) Policy { return core.DtbMem{MemMax: maxBytes} }

// ParsePolicy builds a policy from a textual spec such as "full",
// "fixed4", "dtbfm:50k", "dtbmem:3000k", "bandit:eps=0.1" or
// "grad:rate=0.2" (see internal/core for the grammar); it is what the
// command-line tools use.
func ParsePolicy(spec string) (Policy, error) { return core.ParsePolicy(spec) }

// SimOptions parameterizes Simulate.
type SimOptions struct {
	// Policy drives collection. Leave nil with NoGC or LiveOracle set
	// for the baseline modes.
	Policy Policy
	// PolicySeed seeds adaptive policies (AdaptivePolicy): each run
	// derives its instance seed deterministically from this value, the
	// Label and the collector name, so identical options replay
	// identical learned state on every engine path. Zero is a valid
	// seed; pure policies ignore it.
	PolicySeed uint64
	// NoGC measures the program with the collector disabled.
	NoGC bool
	// LiveOracle measures the exact live-byte curve (storage reclaimed
	// at the instant of death).
	LiveOracle bool
	// Machine defaults to PaperMachine().
	Machine Machine
	// TriggerBytes is the scavenge interval; defaults to 1 MB.
	TriggerBytes uint64
	// RecordCurve retains the memory-over-time series (Figure 2).
	RecordCurve bool
	// CurvePoints caps the retained curve length (0 = keep all).
	CurvePoints int
	// PageFrames enables the virtual-memory model: an LRU resident
	// set of PageFrames pages (PageBytes each, default 4096) is driven
	// by mutator and collector touches, and the result reports page
	// faults — the locality axis on which generational collection was
	// originally evaluated.
	PageFrames int
	// PageBytes sets the page size when PageFrames > 0.
	PageBytes uint64
	// Opportunistic additionally scavenges at trace Mark events
	// (program quiescent points) once half the trigger interval has
	// accumulated — Wilson & Moher's answer to "when to collect",
	// composable with any boundary policy's answer to "what to
	// collect" (§4).
	Opportunistic bool
	// Probe, when non-nil, receives the run's telemetry: a typed
	// event at run start and finish, per scavenge (the policy decision
	// and the outcome), and periodically during allocation. Telemetry
	// observes, never influences — a run's result is identical with or
	// without a probe — and a nil Probe costs the simulator nothing.
	// See NewTelemetryWriter and NewProgressReporter for stock sinks.
	Probe Probe
	// ProgressBytes sets the allocation interval between Progress
	// telemetry events (default 4 MB; only meaningful with a Probe).
	ProgressBytes uint64
	// Label tags every telemetry event of this run so one Probe can
	// demux several runs (the evaluation harness labels runs
	// "workload/collector").
	Label string
}

func (o SimOptions) config() sim.Config {
	cfg := sim.Config{
		Policy:        o.Policy,
		PolicySeed:    o.PolicySeed,
		Machine:       o.Machine,
		TriggerBytes:  o.TriggerBytes,
		RecordCurve:   o.RecordCurve,
		CurvePoints:   o.CurvePoints,
		Opportunistic: o.Opportunistic,
		PageFrames:    o.PageFrames,
		PageBytes:     o.PageBytes,
		Probe:         o.Probe,
		ProgressBytes: o.ProgressBytes,
		Label:         o.Label,
	}
	switch {
	case o.NoGC:
		cfg.Mode = sim.ModeNoGC
	case o.LiveOracle:
		cfg.Mode = sim.ModeLive
	default:
		cfg.Mode = sim.ModePolicy
	}
	return cfg
}

// configs converts option sets to simulator configs, in order.
func configs(opts []SimOptions) []sim.Config {
	cfgs := make([]sim.Config, len(opts))
	for i, o := range opts {
		cfgs[i] = o.config()
	}
	return cfgs
}

// Simulate runs one collector (or baseline) over an allocation trace
// and returns its metrics.
func Simulate(events []Event, opts SimOptions) (*Result, error) {
	return sim.Run(events, opts.config())
}

// SimulateStream runs a collector over a binary trace streamed from r
// (as written by WriteTrace), decoding it a fixed-size chunk at a time
// so memory use is bounded by the simulated heap, not the trace length.
func SimulateStream(r io.Reader, opts SimOptions) (*Result, error) {
	return sim.RunReader(trace.NewReader(r), opts.config())
}

// EventSource streams one trace in event order to an emit callback,
// stopping at the first emit error (returned unchanged). It is how
// the replay engine consumes traces without materializing them:
// Workload.GenerateTo satisfies the signature directly, and
// SliceSource/StreamSource adapt the other trace forms. A replay runs
// its source on a goroutine of its own, up to seven 512-event batches
// ahead of the collectors, and waits for it to return; probes and
// policies run on the caller's goroutine.
type EventSource = engine.Source

// SliceSource adapts an in-memory trace to an EventSource.
func SliceSource(events []Event) EventSource { return engine.SliceSource(events) }

// StreamSource adapts a binary trace stream (as written by WriteTrace)
// to an EventSource; events decode a fixed-size batch at a time, so
// replaying an arbitrarily long capture uses memory bounded by the
// simulated heaps.
func StreamSource(r io.Reader) EventSource { return readerSource(trace.NewReader(r)) }

// readerSource adapts a decoder, strict or recovering, to a per-event
// EventSource: it decodes through ReadBatch into a fixed buffer and
// emits each batch event by event, the events decoded before a
// failure first. It stays per-event because EventSource and a fault
// plan's event offsets are.
func readerSource(rd *trace.Reader) EventSource {
	return func(emit func(Event) error) error {
		buf := make([]Event, 1024)
		for {
			n, err := rd.ReadBatch(buf)
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
}

// DropStats is the recovering decoder's accounting of what a damaged
// trace lost: typed drop counts plus the exact bytes skipped. The zero
// value means the stream decoded completely.
type DropStats = trace.DropStats

// RecoveringSource adapts a possibly damaged binary trace stream to an
// EventSource, decoding it as StreamSource does but in the decoder's
// recovering mode: corrupt records are resynced past and a torn file
// tail is absorbed instead of failing the replay. Nothing is dropped
// silently — the second return value reports the
// exact accounting, final once the source has been consumed — and the
// caller is expected to surface it (TelemetryWriter.Drops,
// Auditor.NoteDrops). The strict StreamSource remains the default for
// data whose integrity matters.
func RecoveringSource(r io.Reader) (EventSource, func() DropStats) {
	rd := trace.NewRecoveringReader(r)
	return readerSource(rd), rd.Drops
}

// ReplayAll is the single-pass fan-out at the heart of the evaluation
// harness: the source's events are produced exactly once and fed to
// one independent runner per option set, whose results return in
// option order. Every result — History and telemetry sequence
// included — is bit-identical to a solo Simulate over the same trace;
// only the trace production and per-event bookkeeping work is shared.
// Events are delivered in batches internally; cancelling ctx aborts
// the replay at the next batch boundary (at most a few thousand
// events) with ctx's error.
func ReplayAll(ctx context.Context, src EventSource, opts []SimOptions) ([]*Result, error) {
	return engine.Replay(ctx, src, configs(opts))
}

// Checkpoint captures a consistent interrupted replay, resumable via
// its Resume method with a reopened source. Once a resume has fed the
// replay past it, the checkpoint is stale and Resume refuses it. See
// ReplayAllResumable.
type Checkpoint = engine.Checkpoint

// ReplayAllResumable is ReplayAll with checkpoint/resume: when the
// replay aborts between events — a source read error, a context
// cancellation — the returned Checkpoint can continue it from a
// reopened source replaying the same stream (the already-processed
// prefix is decoded and discarded, never re-fed). The resumed run's
// results and telemetry are bit-identical to an uninterrupted run.
// Errors that abort mid-event (a runner rejecting an event) return a
// nil checkpoint: there is nothing consistent to resume.
func ReplayAllResumable(ctx context.Context, src EventSource, opts []SimOptions) ([]*Result, *Checkpoint, error) {
	return engine.ReplayResumable(ctx, src, configs(opts))
}

// HistoryCSV renders a result's per-scavenge history — time,
// boundary, traced, reclaimed, surviving bytes and the pause — as CSV
// for plotting or inspection.
//
// History and Pauses are produced in lockstep by the simulator, one
// entry each per scavenge. If a hand-built Result violates that, the
// orphaned rows render an explicit NaN pause cell rather than a
// fabricated 0.0 — a zero pause is a plausible measurement, NaN is
// unmistakably "no data".
func HistoryCSV(res *Result) string {
	var b strings.Builder
	b.WriteString("n,tKB,tbKB,memBeforeKB,tracedKB,reclaimedKB,survivingKB,pauseMS\n")
	for i, s := range res.History.Scavenges {
		pause := math.NaN()
		if i < len(res.Pauses) {
			pause = res.Pauses[i] * 1000
		}
		fmt.Fprintf(&b, "%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
			s.N, float64(s.T)/1024, float64(s.TB)/1024, float64(s.MemBefore)/1024,
			float64(s.Traced)/1024, float64(s.Reclaimed)/1024, float64(s.Surviving)/1024, pause)
	}
	return b.String()
}

// Workloads returns the six calibrated profiles of the paper's
// evaluation, in table order: GHOST(1), GHOST(2), ESPRESSO(1),
// ESPRESSO(2), SIS, CFRAC.
func Workloads() []Workload { return workload.PaperProfiles() }

// WorkloadByName returns the named paper workload.
//
// Panic contract: it panics on an unknown name. It exists for
// compile-time-constant names ("GHOST(1)", "SIS", ...), where a
// misspelling is a programming error best caught loudly; anything
// user- or config-derived must go through LookupWorkload, which
// returns the error instead.
func WorkloadByName(name string) Workload {
	p, err := workload.ByName(name)
	if err != nil {
		panic(fmt.Sprintf("dtbgc: WorkloadByName(%q): %v — for names not fixed at compile time use LookupWorkload", name, err))
	}
	return p
}

// LookupWorkload returns the named paper workload or an error listing
// the valid names.
func LookupWorkload(name string) (Workload, error) { return workload.ByName(name) }

// FitWorkload derives a Workload profile from a recorded trace — the
// inverse of Workload.Generate. Capture your program's allocation
// trace, fit it, and study collector behaviour on scaled or perturbed
// variants. The fit is a permanent ramp plus a two-exponential
// lifetime mixture; see internal/workload.Fit for its semantics.
func FitWorkload(events []Event, name string) (Workload, error) {
	return workload.Fit(events, name)
}

// LifetimeStats characterizes a trace's object demographics: sizes,
// permanent fraction, and the byte-weighted lifetime survival
// function on the allocation clock.
type LifetimeStats = trace.LifetimeStats

// MeasureLifetimes computes LifetimeStats for a trace.
func MeasureLifetimes(events []Event) (*LifetimeStats, error) {
	return trace.MeasureLifetimes(events)
}

// WriteTrace encodes events in the compact binary trace format.
func WriteTrace(w io.Writer, events []Event) error { return trace.WriteAll(w, events) }

// ReadTrace decodes a binary trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Event, error) { return trace.NewReader(r).ReadAll() }

// DigestTrace decodes a binary trace from r, returning its hex
// sha256 content digest and event count. The digest is computed over
// the canonical binary encoding, so it is route-independent: the same
// events digested in memory (or re-encoded from a decode) produce the
// same value. It is the content address the dtbd daemon serves traces
// under — `dtbd eval -trace` sends it first and uploads the bytes
// only on a miss.
func DigestTrace(r io.Reader) (digest string, events int, err error) {
	dr := trace.NewDigestingReader(r)
	all, err := trace.NewReader(dr).ReadAll()
	if err != nil {
		return "", 0, err
	}
	return dr.Sum().String(), len(all), nil
}

// WriteTraceText encodes events in the line-oriented text format.
func WriteTraceText(w io.Writer, events []Event) error { return trace.WriteText(w, events) }

// ReadTraceText decodes the line-oriented text trace format.
func ReadTraceText(r io.Reader) ([]Event, error) { return trace.ReadText(r) }

// ValidateTrace checks a trace for well-formedness (unique IDs, no
// double frees, monotone clock, pointer stores between live objects).
// It ends with the simulator's own event checks, so every trace defect
// a replay would report, such as an allocation past the tape's
// birth-bucket span, is reported here first, with the same text.
func ValidateTrace(events []Event) error {
	if err := trace.Validate(events); err != nil {
		return err
	}
	return sim.Check(events)
}

// WindowTrace extracts the self-contained sub-trace covering the
// instruction interval [from, to]: objects still live at the window's
// start are re-introduced with synthetic allocations (original
// relative ages preserved), so the result passes ValidateTrace and can
// drive Simulate directly. Use it to skip a capture's warm-up or to
// isolate one program phase.
func WindowTrace(events []Event, from, to uint64) ([]Event, error) {
	return trace.Window(events, from, to)
}

// ForwardStats summarizes a trace's pointer stores by direction —
// the §4.2 observable: the dynamic boundary collector remembers every
// forward-in-time pointer, a design that works because such pointers
// are a small fraction of all stores.
type ForwardStats = trace.ForwardStats

// MeasureForwardPointers computes ForwardStats for a trace (the
// mini-applications' traces include pointer-store events).
func MeasureForwardPointers(events []Event) (ForwardStats, error) {
	return trace.MeasureForward(events)
}
