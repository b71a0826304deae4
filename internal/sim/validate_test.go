package sim

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/trace"
)

func TestMachineValidate(t *testing.T) {
	bad := []Machine{
		{},                                     // zero MIPS and rate
		{MIPS: 0, TraceBytesPer: 500 * 1024},   // zero MIPS
		{MIPS: 10, TraceBytesPer: 0},           // zero rate
		{MIPS: -10, TraceBytesPer: 500 * 1024}, // negative MIPS
		{MIPS: 10, TraceBytesPer: -1},          // negative rate
		{MIPS: math.Inf(1), TraceBytesPer: 1},  // infinite MIPS
		{MIPS: 10, TraceBytesPer: math.Inf(1)}, // infinite rate
		{MIPS: math.NaN(), TraceBytesPer: 1},   // NaN MIPS
		{MIPS: 10, TraceBytesPer: math.NaN()},  // NaN rate
		{MIPS: 10, TraceBytesPer: 5e-324},      // pauses overflow to +Inf
		{MIPS: 1e-300, TraceBytesPer: 1},       // ExecSeconds overflows
		{MIPS: 1e300, TraceBytesPer: 1},        // OverheadPct overflows
		{MIPS: 10, TraceBytesPer: 1e300},       // rate past the bound
	}
	for _, m := range bad {
		if m.Validate() == nil {
			t.Errorf("Machine %+v accepted", m)
		}
	}
	// At the bounds, the largest counts still give finite figures.
	for _, m := range []Machine{PaperMachine(), {MIPS: 1e-6, TraceBytesPer: 1}, {MIPS: 1e9, TraceBytesPer: 1}, {MIPS: 1e9, TraceBytesPer: 1e15}} {
		if err := m.Validate(); err != nil {
			t.Errorf("Machine %+v rejected: %v", m, err)
		}
		exec, pause := m.Seconds(math.MaxUint64), m.PauseSeconds(math.MaxUint64)
		overhead := 100 * pause / m.Seconds(1)
		for _, v := range []float64{exec, pause, overhead, float64(math.MaxInt64) * pause} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("Machine %+v: exec %v, pause %v, overhead %v, sum of 2^63 pauses %v", m, exec, pause, overhead, float64(math.MaxInt64)*pause)
			}
		}
	}
}

// halfMachine is the config mistake Validate exists for: a hand-built
// Machine with only one rate set, which before validation produced
// silent Inf/NaN pauses and overheads instead of an error.
var halfMachine = Machine{MIPS: 10}

func TestRunRejectsInvalidMachine(t *testing.T) {
	cfg := Config{Policy: core.Full{}, Machine: halfMachine}
	if _, err := Run(churnTrace(50, 256, 8, 0), cfg); err == nil {
		t.Fatal("half-built machine accepted by Run")
	}
}

func TestRunReaderRejectsInvalidMachine(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, churnTrace(50, 256, 8, 0)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: core.Full{}, Machine: halfMachine}
	if _, err := RunReader(trace.NewReader(&buf), cfg); err == nil {
		t.Fatal("half-built machine accepted by RunReader")
	}
}

func TestZeroMachineStillDefaultsToPaper(t *testing.T) {
	res := mustRun(t, churnTrace(200, 512, 8, 0), tinyConfig(core.Full{}))
	if res.Collections == 0 {
		t.Fatal("no collections")
	}
	// Pauses on the paper machine: traced bytes / 500 KB/s, finite.
	for _, p := range res.Pauses {
		if math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("pause %v on defaulted machine", p)
		}
	}
}

func TestRejectedConfigEmitsNoTelemetry(t *testing.T) {
	p := &recordingProbe{}
	cfg := Config{Policy: core.Full{}, Machine: halfMachine, Probe: p}
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	if len(p.events) != 0 {
		t.Fatalf("rejected config emitted %d events; a stream was opened that can never close", len(p.events))
	}
}

func TestConfigValidateModes(t *testing.T) {
	if err := (Config{Mode: ModePolicy}).Validate(); err == nil {
		t.Error("ModePolicy without Policy accepted")
	}
	if err := (Config{Mode: ModeNoGC}).Validate(); err != nil {
		t.Errorf("ModeNoGC rejected: %v", err)
	}
	if err := (Config{Mode: ModeLive}).Validate(); err != nil {
		t.Errorf("ModeLive rejected: %v", err)
	}
	if err := (Config{Mode: Mode(99)}).Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestProbesFanOut(t *testing.T) {
	if Probes() != nil {
		t.Error("zero probes should combine to nil")
	}
	if Probes(nil, nil) != nil {
		t.Error("all-nil probes should combine to nil")
	}
	single := &recordingProbe{}
	if got := Probes(nil, single, nil); got != Probe(single) {
		t.Error("one live probe should be returned unwrapped")
	}
	a, b := &recordingProbe{}, &recordingProbe{}
	combined := Probes(a, b)
	cfg := tinyConfig(core.Fixed{K: 1})
	cfg.Probe = combined
	mustRun(t, churnTrace(200, 512, 8, 0), cfg)
	if len(a.events) == 0 {
		t.Fatal("first probe saw nothing")
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("fan-out uneven: %d vs %d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if !eventsEqual(a.events[i], b.events[i]) {
			t.Fatalf("event %d diverged between fan-out members", i)
		}
	}
}

// eventsEqual compares probe events; RunFinish carries a shared
// pointer, so identity is the right comparison there.
func eventsEqual(x, y any) bool {
	if fx, ok := x.(RunFinish); ok {
		fy, ok := y.(RunFinish)
		return ok && fx.Label == fy.Label && fx.Result == fy.Result
	}
	switch xv := x.(type) {
	case RunStart:
		yv, ok := y.(RunStart)
		return ok && xv == yv
	case Decision:
		yv, ok := y.(Decision)
		if !ok || xv.Label != yv.Label || xv.N != yv.N || xv.Now != yv.Now || xv.TB != yv.TB {
			return false
		}
		return true
	case ScavengeEvent:
		yv, ok := y.(ScavengeEvent)
		return ok && xv == yv
	case Progress:
		yv, ok := y.(Progress)
		return ok && xv == yv
	}
	return false
}

func TestRunStartCarriesMachine(t *testing.T) {
	p := &recordingProbe{}
	cfg := tinyConfig(core.Full{})
	cfg.Probe = p
	mustRun(t, churnTrace(50, 256, 8, 0), cfg)
	start, ok := p.events[0].(RunStart)
	if !ok {
		t.Fatalf("first event %T, want RunStart", p.events[0])
	}
	if start.Machine != PaperMachine() {
		t.Fatalf("RunStart.Machine = %+v, want the defaulted paper machine", start.Machine)
	}
}

// TestBirthBucketSpanBounded: an allocation that moves the clock past
// the birth-bucket span is rejected, by Check and Run alike, before
// liveByBirth grows to reach it, while the widest accepted span costs
// an array of at most 8 MiB.
func TestBirthBucketSpanBounded(t *testing.T) {
	cases := []struct {
		size   uint64
		reject bool
	}{
		{1 << 40, true},                       // bucket 2^24
		{1<<(20+birthBucketShift) - 1, false}, // the last bucket in the span
	}
	for _, c := range cases {
		events := []trace.Event{trace.Alloc(1, c.size, 0), trace.Free(1, 1)}
		runs := []struct {
			name string
			run  func() error
		}{
			{"Check", func() error { return Check(events) }},
			{"Run", func() error {
				_, err := Run(events, Config{Policy: core.Full{}})
				return err
			}},
		}
		for _, r := range runs {
			name := r.name
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := r.run()
			runtime.ReadMemStats(&after)
			if c.reject && (err == nil || !strings.Contains(err.Error(), "birth bucket")) {
				t.Errorf("%s, %d-byte alloc: error %v, want the birth-bucket error", name, c.size, err)
			}
			if !c.reject && err != nil {
				t.Errorf("%s, %d-byte alloc: %v", name, c.size, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
				t.Errorf("%s, %d-byte alloc: allocated %d bytes", name, c.size, grew)
			}
		}
	}
}
