package cliio

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func conflictFS(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("policy", "", "")
	fs.String("baseline", "", "")
	fs.Float64("scale", 1.0, "")
	fs.Bool("apps", false, "")
	return fs
}

func TestConflictsRejectsSetPairs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool // conflict expected
	}{
		{[]string{"-policy", "full", "-baseline", "live"}, true},
		{[]string{"-policy", "full"}, false},
		{[]string{"-baseline", "live"}, false},
		{[]string{}, false},
		// Set-ness, not value: an explicit empty value still counts as
		// the user asking for the flag.
		{[]string{"-policy", "", "-baseline", "live"}, true},
		// Booleans and non-string defaults need no sentinel value.
		{[]string{"-apps", "-scale", "0.5"}, true},
		// A flag at its default but never mentioned does not conflict.
		{[]string{"-apps"}, false},
	} {
		fs := conflictFS(t)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("parse %v: %v", tc.args, err)
		}
		err := Conflicts(fs,
			Conflict{A: "policy", B: "baseline", Reason: "one or the other"},
			Conflict{A: "apps", B: "scale", Reason: "fixed-size"},
		)
		if got := err != nil; got != tc.want {
			t.Errorf("args %v: conflict = %v (err %v), want %v", tc.args, got, err, tc.want)
		}
		if err != nil {
			var ue *UsageError
			if !errors.As(err, &ue) {
				t.Errorf("args %v: conflict error %v is not a UsageError", tc.args, err)
			}
			if ExitCode(err) != 2 {
				t.Errorf("args %v: exit %d, want 2", tc.args, ExitCode(err))
			}
		}
	}
}

func TestConflictsMessageNamesBothFlags(t *testing.T) {
	fs := conflictFS(t)
	if err := fs.Parse([]string{"-policy", "full", "-baseline", "live"}); err != nil {
		t.Fatal(err)
	}
	err := Conflicts(fs, Conflict{A: "policy", B: "baseline", Reason: "one or the other"})
	if err == nil {
		t.Fatal("no conflict reported")
	}
	for _, want := range []string{"-policy", `"full"`, "-baseline", `"live"`, "one or the other"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict message %q missing %q", err, want)
		}
	}
}

// TestConflictsUnknownFlagPanics: a conflict table naming a flag that
// no longer exists is drift after a rename — it must fail loudly at
// the first invocation, not silently stop guarding the pair.
func TestConflictsUnknownFlagPanics(t *testing.T) {
	fs := conflictFS(t)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Conflicts accepted a pair naming an unknown flag")
		}
		if !strings.Contains(r.(string), "renamed-away") {
			t.Errorf("panic %v does not name the missing flag", r)
		}
	}()
	_ = Conflicts(fs, Conflict{A: "policy", B: "renamed-away", Reason: "x"})
}

func TestFlagWasSet(t *testing.T) {
	fs := conflictFS(t)
	if err := fs.Parse([]string{"-scale", "1.0"}); err != nil {
		t.Fatal(err)
	}
	// Explicitly passing the default value still counts as set.
	if !FlagWasSet(fs, "scale") {
		t.Error("scale passed explicitly at its default not reported as set")
	}
	if FlagWasSet(fs, "policy") {
		t.Error("policy reported set without appearing on the command line")
	}
}

// TestProfileFailedWork: a run that fails still stops and writes its
// CPU profile, returns its own error, and takes no heap profile.
func TestProfileFailedWork(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	boom := errors.New("boom")
	if err := Profile(cpu, mem, nil, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Profile returned %v, want the run's error", err)
	}
	if fi, err := os.Stat(cpu); err != nil {
		t.Error(err)
	} else if fi.Size() == 0 {
		t.Error("the CPU profile is empty")
	}
	if _, err := os.Stat(mem); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("heap profile of a failed run: %v, want none", err)
	}
}
