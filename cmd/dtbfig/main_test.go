package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/cliio"
)

// small keeps the evaluation behind the figure tiny.
var small = []string{"-workload", "SIS", "-scale", "0.002"}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "NOPE"},
		{"-collector", "NOPE"},
		{"-no-such-flag"},
		{"-scale", "x"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
	} {
		var out, errs bytes.Buffer
		if code := cliio.ExitCode(run(args, &out, &errs)); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// failingWriter stands for a stdout that cannot take the figure: a
// full disk behind a redirect, or a closed pipe.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestWriteFailureExitsNonzero: the same figure that prints to a
// working stdout must fail the command when stdout refuses it, rather
// than exit 0 with nothing written.
func TestWriteFailureExitsNonzero(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(small, &out, &errs); err != nil {
		t.Fatalf("figure to a buffer: %v", err)
	}
	if !strings.HasPrefix(out.String(), "allocatedKB,memKB,liveKB\n") {
		t.Fatalf("figure does not start with the CSV header:\n%.200s", out.String())
	}
	if code := cliio.ExitCode(run(small, failingWriter{}, &errs)); code != 1 {
		t.Fatalf("figure to a failing stdout: exit %d, want 1", code)
	}
}
