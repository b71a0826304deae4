package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/fault"
)

// tables runs the CLI's run() and returns its streams and exit code.
// -scale keeps the workloads tiny so a full evaluation fits in a test.
func tables(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errs bytes.Buffer
	err := run(args, &out, &errs)
	return out.String(), errs.String(), cliio.ExitCode(err)
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "7"},
		{"-table", "1"},
		{"-no-such-flag"},
		{"-inject", "bogus@1"},
		// Pairs that used to slip through silently: -apps ignored
		// -scale, -check won over -compare.
		{"-apps", "-scale", "0.5"},
		{"-compare", "-check"},
		{"-check", "-table", "2"},
		{"-compare", "-table", "5"},
		{"-compare", "-table", "6"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
	} {
		if _, _, code := tables(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestTinyEvaluationPrintsTables(t *testing.T) {
	stdout, _, code := tables(t, "-scale", "0.002")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Table 2", "Table 3", "Table 4"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q", want)
		}
	}
	one, _, code := tables(t, "-scale", "0.002", "-table", "2")
	if code != 0 {
		t.Fatalf("-table 2 exit %d", code)
	}
	if !strings.Contains(one, "Table 2") || strings.Contains(one, "Table 3") {
		t.Fatalf("-table 2 printed the wrong tables:\n%s", one)
	}
}

// TestOutputFaultsExitNonzero: a table render that cannot reach the
// terminal intact — a write failure mid-stream or one surfacing only at
// the final flush — must not exit 0 looking complete.
func TestOutputFaultsExitNonzero(t *testing.T) {
	for _, inject := range []string{"close-err", "write-err@40", "short-write@5"} {
		var out, errs bytes.Buffer
		err := run([]string{"-scale", "0.002", "-table", "2", "-inject", inject}, &out, &errs)
		if code := cliio.ExitCode(err); code != 1 {
			t.Errorf("%s: exit %d (err %v), want 1", inject, code, err)
		}
		if inject == "close-err" && !errors.Is(err, fault.ErrInjected) {
			t.Errorf("close failure surfaced as %v, want the injected error", err)
		}
	}
}

func TestCompareRunsClean(t *testing.T) {
	stdout, _, code := tables(t, "-scale", "0.002", "-compare", "-table", "2")
	if code != 0 {
		t.Fatalf("-compare exit %d", code)
	}
	if !strings.Contains(stdout, "paper") && !strings.Contains(stdout, "Table") {
		t.Fatalf("comparison output unrecognised:\n%s", stdout)
	}
}

// TestAppsAppliesKnobs: -apps hands -trigger, -memmax and -tracemax to
// the mini-application evaluation, which fills in its own defaults
// for the ones left unset.
func TestAppsAppliesKnobs(t *testing.T) {
	var prev string
	for _, tc := range []struct {
		args []string
		opts dtbgc.AppEvalOptions
	}{
		{nil, dtbgc.AppEvalOptions{}},
		{[]string{"-trigger", "32768", "-memmax", "131072", "-tracemax", "8192"},
			dtbgc.AppEvalOptions{TriggerBytes: 32768, MemMaxBytes: 131072, TraceMaxBytes: 8192}},
	} {
		ev, err := dtbgc.RunAppEvaluation(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintln(ev.Table2())
		got, stderr, code := tables(t, append([]string{"-apps", "-table", "2"}, tc.args...)...)
		if code != 0 {
			t.Fatalf("args %v: exit %d:\n%s", tc.args, code, stderr)
		}
		if got != want {
			t.Errorf("args %v printed\n%s\nwant\n%s", tc.args, got, want)
		}
		if got == prev {
			t.Errorf("args %v printed the same table as the defaults", tc.args)
		}
		prev = got
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a
// non-empty pprof file behind.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if _, stderr, code := tables(t, "-apps", "-table", "2", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}
