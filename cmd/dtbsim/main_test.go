package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/fault"
)

// writeFixtureTrace writes a small recorded trace and returns its path.
func writeFixtureTrace(t *testing.T) string {
	t.Helper()
	events, err := dtbgc.WorkloadByName("CFRAC").Scale(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty fixture workload")
	}
	path := filepath.Join(t.TempDir(), "fixture.dtbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dtbgc.WriteTrace(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sim runs the tool's run() and returns its streams and exit code.
func sim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errs bytes.Buffer
	err := run(args, &out, &errs)
	return out.String(), errs.String(), cliio.ExitCode(err)
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},                  // no source
		{"-policy", "full"}, // still no source
		{"-policy", "full", "-baseline", "live", "-workload", "CFRAC"}, // conflict
		{"-policy", "full", "-workload", "CFRAC", "-trace", "x.dtbt"},  // conflict
		{"-policy", "full", "-trace", "x.dtbt", "-scale", "0.5"},       // scale on a trace
		{"-policy", "nope", "-workload", "CFRAC"},                      // unknown policy
		{"-baseline", "nope", "-workload", "CFRAC"},                    // unknown baseline
		{"-policy", "full", "-workload", "CFRAC", "-resume", "-1"},
		{"-policy", "full", "-workload", "CFRAC", "-inject", "bogus@1"},
		{"-recover", "-policy", "full", "-workload", "CFRAC"}, // recover without a trace
		{"-policy", "full", "-workload", "CFRAC", "-scale", "0"},
		{"-policy", "full", "-workload", "CFRAC", "-scale", "-1"},
		{"-policy", "full", "-workload", "CFRAC", "-scale", "NaN"},
		{"-policy", "full", "-workload", "CFRAC", "-scale", "+Inf"},
		{"-definitely-not-a-flag"},
	} {
		if _, _, code := sim(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestWorkloadRunSucceeds(t *testing.T) {
	stdout, _, code := sim(t, "-policy", "full", "-workload", "CFRAC", "-scale", "0.01")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout, "collector:") {
		t.Fatalf("summary missing from stdout: %q", stdout)
	}
}

func TestTraceReplayMatchesWorkloadRun(t *testing.T) {
	path := writeFixtureTrace(t)
	fromTrace, _, code := sim(t, "-policy", "full", "-trace", path)
	if code != 0 {
		t.Fatalf("trace replay exit %d", code)
	}
	fromWorkload, _, code := sim(t, "-policy", "full", "-workload", "CFRAC", "-scale", "0.01")
	if code != 0 {
		t.Fatalf("workload run exit %d", code)
	}
	if fromTrace != fromWorkload {
		t.Fatalf("replaying the recorded trace gave a different summary:\n%s\nvs\n%s", fromTrace, fromWorkload)
	}
}

// TestHeaderOnlyTraceIsCleanEmptyRun is the satellite regression at the
// CLI layer: a trace file holding just the header (an empty recording)
// replays as a run over zero events, not a truncation failure.
func TestHeaderOnlyTraceIsCleanEmptyRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.dtbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dtbgc.WriteTrace(f, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stdout, _, code := sim(t, "-policy", "full", "-trace", path)
	if code != 0 {
		t.Fatalf("header-only trace exit %d", code)
	}
	if !strings.Contains(stdout, "collections:    0") {
		t.Fatalf("expected an empty run summary, got:\n%s", stdout)
	}
}

// TestTornTraceFailsStrictRecoversWithFlag: a trace cut mid-record
// fails a strict replay loudly, and -recover turns it into a success
// with the drop disclosed on stderr.
func TestTornTraceFailsStrictRecoversWithFlag(t *testing.T) {
	path := writeFixtureTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.dtbt")
	// Cutting one byte always lands mid-record: every record is at
	// least two bytes (kind + payload).
	if err := os.WriteFile(torn, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, code := sim(t, "-policy", "full", "-trace", torn); code != 1 {
		t.Fatalf("strict replay of a torn trace exited %d, want 1", code)
	}
	_, stderr, code := sim(t, "-policy", "full", "-trace", torn, "-recover")
	if code != 0 {
		t.Fatalf("-recover exited %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "recovered") || !strings.Contains(stderr, "torn tail") {
		t.Fatalf("recovery did not disclose the drop on stderr: %q", stderr)
	}
}

// TestRecoveredDropsLandInTelemetry: the drops travel the machine
// channel too, as a "drops" line in the telemetry stream.
func TestRecoveredDropsLandInTelemetry(t *testing.T) {
	path := writeFixtureTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.dtbt")
	if err := os.WriteFile(torn, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	tel := filepath.Join(t.TempDir(), "run.jsonl")
	if _, _, code := sim(t, "-policy", "full", "-trace", torn, "-recover", "-audit", "-telemetry", tel); code != 0 {
		t.Fatalf("exit %d", code)
	}
	blob, err := os.ReadFile(tel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"event":"drops"`) || !strings.Contains(string(blob), `"torn_tail_records":1`) {
		t.Fatalf("telemetry missing the drops line:\n%s", blob)
	}
}

// TestResumeAfterInjectedReadError: a transient source failure plus
// -resume produces the identical summary to an undisturbed run, with
// the retry disclosed on stderr.
func TestResumeAfterInjectedReadError(t *testing.T) {
	path := writeFixtureTrace(t)
	want, _, code := sim(t, "-policy", "full", "-trace", path)
	if code != 0 {
		t.Fatalf("baseline exit %d", code)
	}
	got, stderr, code := sim(t, "-policy", "full", "-trace", path, "-resume", "1", "-inject", "read-err@4k")
	if code != 0 {
		t.Fatalf("resumed run exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming after") {
		t.Fatalf("retry not disclosed on stderr: %q", stderr)
	}
	if got != want {
		t.Fatalf("resumed summary differs from the undisturbed run:\n%s\nvs\n%s", got, want)
	}
}

func TestResumeBudgetExhaustedFailsLoudly(t *testing.T) {
	path := writeFixtureTrace(t)
	_, _, code := sim(t, "-policy", "full", "-trace", path, "-inject", "read-err@4k")
	if code != 1 {
		t.Fatalf("injected read error without -resume exited %d, want 1", code)
	}
}

// TestOutputCloseFailuresExitNonzero is the silent-truncation satellite
// proof: a failure surfacing only at Close (ENOSPC at the final flush)
// on any output path must fail the run. Before the close checks these
// all exited 0 with truncated output.
func TestOutputCloseFailuresExitNonzero(t *testing.T) {
	path := writeFixtureTrace(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"telemetry", []string{"-telemetry", filepath.Join(dir, "t.jsonl")}},
		{"cpuprofile", []string{"-cpuprofile", filepath.Join(dir, "cpu.pprof")}},
		{"memprofile", []string{"-memprofile", filepath.Join(dir, "mem.pprof")}},
		{"summary", nil}, // stdout itself
	} {
		args := append([]string{"-policy", "full", "-trace", path, "-inject", "close-err"}, tc.args...)
		var out, errs bytes.Buffer
		err := run(args, &out, &errs)
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%s: close failure surfaced as %v, want the injected error", tc.name, err)
		}
		if cliio.ExitCode(err) != 1 {
			t.Errorf("%s: exit %d, want 1", tc.name, cliio.ExitCode(err))
		}
	}
}

// TestWriteFailuresExitNonzero: mid-stream write failures (disk full
// before the final flush) on the same paths.
func TestWriteFailuresExitNonzero(t *testing.T) {
	path := writeFixtureTrace(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		inject string
		args   []string
	}{
		{"telemetry", "write-err@64", []string{"-telemetry", filepath.Join(dir, "t.jsonl")}},
		{"memprofile", "write-err@1", []string{"-memprofile", filepath.Join(dir, "mem.pprof")}},
		{"summary", "write-err@10", nil},
		{"summary-short", "short-write@3", nil},
	} {
		args := append([]string{"-policy", "full", "-trace", path, "-inject", tc.inject}, tc.args...)
		if _, _, code := sim(t, args...); code != 1 {
			t.Errorf("%s (%s): exit %d, want 1", tc.name, tc.inject, code)
		}
	}
}

func TestAuditedRunStaysClean(t *testing.T) {
	path := writeFixtureTrace(t)
	if _, stderr, code := sim(t, "-policy", "dtbfm:8k", "-trace", path, "-audit"); code != 0 {
		t.Fatalf("audited run exit %d:\n%s", code, stderr)
	}
}
