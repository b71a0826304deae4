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

// app runs the CLI's run() and returns its streams and exit code.
func app(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errs bytes.Buffer
	err := run(args, &out, &errs)
	return out.String(), errs.String(), cliio.ExitCode(err)
}

// smallEspresso is the fastest trace-producing invocation, shared by
// the happy-path and fault tests.
func smallEspresso(extra ...string) []string {
	return append([]string{"espresso", "-problems", "1", "-vars", "4", "-cubes", "4"}, extra...)
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"ghost", "-no-such-flag"},
		{"ghost", "-doc", "novel"},
		{"espresso", "-inject", "bogus@1"},
		{"eval"}, // not a subcommand: dtbtables -apps runs the app evaluation
	} {
		if _, _, code := app(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestEspressoWritesDecodableTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "esp.dtbt")
	_, stderr, code := app(t, smallEspresso("-o", out)...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "espresso:") {
		t.Fatalf("summary missing from stderr: %q", stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	events, err := dtbgc.ReadTrace(bytes.NewReader(data))
	if err != nil || len(events) == 0 {
		t.Fatalf("trace file: %d events, %v", len(events), err)
	}
}

func TestTraceToStdout(t *testing.T) {
	stdout, _, code := app(t, smallEspresso()...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	events, err := dtbgc.ReadTrace(strings.NewReader(stdout))
	if err != nil || len(events) == 0 {
		t.Fatalf("stdout stream: %d events, %v", len(events), err)
	}
}

// TestOutputFaultsExitNonzero is the silent-truncation satellite proof
// for the trace-writing subcommands: every fault class on the output
// must fail the command. The close-err cases are exactly the
// unchecked `defer f.Close()` bug — they exited 0 before the fix.
func TestOutputFaultsExitNonzero(t *testing.T) {
	dir := t.TempDir()
	for _, inject := range []string{"close-err", "write-err@100", "short-write@9"} {
		out := filepath.Join(dir, inject+".dtbt")
		var stdout, stderr bytes.Buffer
		err := run(smallEspresso("-inject", inject, "-o", out), &stdout, &stderr)
		if code := cliio.ExitCode(err); code != 1 {
			t.Errorf("%s: exit %d (err %v), want 1", inject, code, err)
		}
		if inject == "close-err" && !errors.Is(err, fault.ErrInjected) {
			t.Errorf("close failure surfaced as %v, want the injected error", err)
		}
	}
}
