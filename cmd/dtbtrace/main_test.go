package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/fault"
)

// tool runs the CLI's run() and returns its streams and exit code.
func tool(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errs bytes.Buffer
	err := run(args, &out, &errs)
	return out.String(), errs.String(), cliio.ExitCode(err)
}

func genFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.dtbt")
	if _, stderr, code := tool(t, "gen", "-workload", "CFRAC", "-scale", "0.01", "-o", path); code != 0 {
		t.Fatalf("gen exited %d:\n%s", code, stderr)
	}
	return path
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"gen", "-no-such-flag"},
		{"stat"},           // missing file
		{"stat", "a", "b"}, // too many files
		{"convert", "-from", "xml", os.DevNull},
		{"window"}, // missing file
		{"gen", "-inject", "bogus@1"},
		{"gen", "-inject", "short-write@0"},
		{"gen", "-scale", "-1"},
		{"gen", "-scale", "NaN"},
	} {
		if _, _, code := tool(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestMissingInputExitsOne(t *testing.T) {
	if _, _, code := tool(t, "stat", filepath.Join(t.TempDir(), "absent.dtbt")); code != 1 {
		t.Errorf("stat on a missing file: exit %d, want 1", code)
	}
}

func TestGenStatValidateRoundTrip(t *testing.T) {
	path := genFixture(t)
	stdout, _, code := tool(t, "stat", path)
	if code != 0 || !strings.Contains(stdout, "events:") {
		t.Fatalf("stat exit %d:\n%s", code, stdout)
	}
	stdout, _, code = tool(t, "validate", path)
	if code != 0 || !strings.Contains(stdout, "ok:") {
		t.Fatalf("validate exit %d:\n%s", code, stdout)
	}
}

func TestConvertBinToTextToBin(t *testing.T) {
	path := genFixture(t)
	text, _, code := tool(t, "convert", "-from", "bin", "-to", "text", path)
	if code != 0 {
		t.Fatalf("convert to text exit %d", code)
	}
	textPath := filepath.Join(t.TempDir(), "fixture.txt")
	if err := os.WriteFile(textPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	bin, _, code := tool(t, "convert", "-from", "text", "-to", "bin", textPath)
	if code != 0 {
		t.Fatalf("convert back to bin exit %d", code)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(bin), orig) {
		t.Fatal("bin -> text -> bin round trip changed the stream")
	}
}

func TestWindowWritesSubTrace(t *testing.T) {
	path := genFixture(t)
	out := filepath.Join(t.TempDir(), "window.dtbt")
	if _, _, code := tool(t, "window", "-from", "0", "-to", "100000", "-o", out, path); code != 0 {
		t.Fatalf("window exit %d", code)
	}
	if _, _, code := tool(t, "validate", out); code != 0 {
		t.Fatal("windowed trace does not validate")
	}
}

// TestOutputFaultsExitNonzero is the silent-truncation satellite proof
// for every dtbtrace output path: a write failure, a short write, or an
// error surfacing only at Close must all fail the command. Before the
// checked-close fix the close-err cases exited 0 leaving a truncated
// file behind.
func TestOutputFaultsExitNonzero(t *testing.T) {
	src := genFixture(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		inject string
		args   func(out string) []string
	}{
		{"gen-close", "close-err", func(out string) []string {
			return []string{"gen", "-workload", "CFRAC", "-scale", "0.01", "-o", out}
		}},
		{"gen-write", "write-err@100", func(out string) []string {
			return []string{"gen", "-workload", "CFRAC", "-scale", "0.01", "-o", out}
		}},
		{"gen-short", "short-write@7", func(out string) []string {
			return []string{"gen", "-workload", "CFRAC", "-scale", "0.01", "-o", out}
		}},
		{"window-close", "close-err", func(out string) []string {
			return []string{"window", "-from", "0", "-o", out, src}
		}},
		{"convert-write", "write-err@50", func(string) []string {
			return []string{"convert", "-from", "bin", "-to", "text", src}
		}},
	} {
		out := filepath.Join(dir, tc.name+".out")
		args := tc.args(out)
		args = append([]string{args[0], "-inject", tc.inject}, args[1:]...)
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if code := cliio.ExitCode(err); code != 1 {
			t.Errorf("%s: exit %d (err %v), want 1", tc.name, code, err)
			continue
		}
		if strings.Contains(tc.inject, "close-err") && !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%s: close failure surfaced as %v, want the injected error", tc.name, err)
		}
		if strings.Contains(tc.inject, "short-write") && !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("%s: short write surfaced as %v, want io.ErrShortWrite", tc.name, err)
		}
	}
}
