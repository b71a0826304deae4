package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/daemon"
)

// startDaemon serves a real daemon on loopback for CLI runs.
func startDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := daemon.NewServer(daemon.Config{Workers: 2})
	s.Start(ln)
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ln.Addr().String()
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"eval", "-policy", "full"}, // no source
		{"eval", "-workload", "CFRAC", "-trace", "x.dtbt", "-policy", "full"},
		{"eval", "-workload", "CFRAC", "-policy", "full", "-baseline", "live"},
		{"eval", "-trace", "x.dtbt", "-scale", "0.5", "-policy", "full"},
		{"serve", "-addr", "127.0.0.1:0", "-socket", "/tmp/x.sock"},
		{"serve", "positional"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		err := run(args, &out, &errBuf)
		if cliio.ExitCode(err) != 2 {
			t.Errorf("run(%q) = %v (exit %d), want usage error (exit 2)", args, err, cliio.ExitCode(err))
		}
	}
}

// TestEvalSummaryMatchesDirectRun drives the workload path through
// the real daemon and checks the printed summary equals
// cliio.PrintSummary over a direct library run — the CLI's flag
// mapping and the daemon's result must both be faithful for the bytes
// to agree.
func TestEvalSummaryMatchesDirectRun(t *testing.T) {
	addr := startDaemon(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"eval", "-addr", addr,
		"-workload", "CFRAC", "-scale", "0.1", "-policy", "dtbfm:50k"}, &out, &errBuf)
	if err != nil {
		t.Fatalf("eval: %v (stderr: %s)", err, errBuf.String())
	}

	events := dtbgc.WorkloadByName("CFRAC").Scale(0.1).MustGenerate()
	policy, perr := dtbgc.ParsePolicy("dtbfm:50k")
	if perr != nil {
		t.Fatalf("ParsePolicy: %v", perr)
	}
	res, serr := dtbgc.Simulate(events, dtbgc.SimOptions{
		Policy:       policy,
		TriggerBytes: 1 << 20,
	})
	if serr != nil {
		t.Fatalf("Simulate: %v", serr)
	}
	var want bytes.Buffer
	cliio.PrintSummary(&want, res)
	if out.String() != want.String() {
		t.Fatalf("dtbd eval summary differs from direct run:\ngot:\n%s\nwant:\n%s", out.String(), want.String())
	}
}

// TestEvalTraceAutoUpload evaluates a trace file twice: the first run
// transparently uploads after the daemon's 404, the second addresses
// the cached tape by digest (no re-upload), and both print the same
// bytes.
func TestEvalTraceAutoUpload(t *testing.T) {
	addr := startDaemon(t)
	events := dtbgc.WorkloadByName("GHOST(1)").Scale(0.05).MustGenerate()
	path := filepath.Join(t.TempDir(), "ghost1.dtbt")
	var enc bytes.Buffer
	if err := dtbgc.WriteTrace(&enc, events); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	var first, second, errBuf bytes.Buffer
	args := []string{"eval", "-addr", addr, "-trace", path, "-policy", "full"}
	if err := run(args, &first, &errBuf); err != nil {
		t.Fatalf("first trace eval: %v (stderr: %s)", err, errBuf.String())
	}
	if err := run(args, &second, &errBuf); err != nil {
		t.Fatalf("second trace eval: %v (stderr: %s)", err, errBuf.String())
	}
	if first.String() != second.String() {
		t.Fatalf("trace eval output changed between runs:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}

	var status bytes.Buffer
	if err := run([]string{"status", "-addr", addr, "-json"}, &status, &errBuf); err != nil {
		t.Fatalf("status: %v", err)
	}
	var snap daemon.MetricsSnapshot
	if err := json.Unmarshal(status.Bytes(), &snap); err != nil {
		t.Fatalf("decoding status JSON: %v", err)
	}
	if snap.TraceUploads != 1 {
		t.Errorf("trace_uploads = %d, want exactly 1 (second eval must reuse the digest)", snap.TraceUploads)
	}
	if snap.MemoHits != 1 || snap.ColdEvals != 1 {
		t.Errorf("memo_hits/cold_evals = %d/%d, want 1/1", snap.MemoHits, snap.ColdEvals)
	}
	if snap.MemoHits+snap.ColdEvals != snap.EvalsServed {
		t.Errorf("serving identity broken: %d + %d != %d", snap.MemoHits, snap.ColdEvals, snap.EvalsServed)
	}
}

// TestEvalTelemetryFile writes the run's telemetry stream to a file
// and spot-checks the JSON-lines shape.
func TestEvalTelemetryFile(t *testing.T) {
	addr := startDaemon(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var out, errBuf bytes.Buffer
	err := run([]string{"eval", "-addr", addr,
		"-workload", "CFRAC", "-scale", "0.1", "-policy", "full",
		"-label", "cli/tel", "-telemetry", path}, &out, &errBuf)
	if err != nil {
		t.Fatalf("eval: %v (stderr: %s)", err, errBuf.String())
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("reading telemetry: %v", rerr)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("telemetry has %d lines, want at least run_start and run_finish", len(lines))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("telemetry line %d is not JSON: %v", i+1, err)
		}
		if obj["label"] != "cli/tel" {
			t.Fatalf("telemetry line %d label = %v, want cli/tel", i+1, obj["label"])
		}
	}
	if !strings.Contains(out.String(), "collector:") {
		t.Fatalf("summary missing from stdout:\n%s", out.String())
	}
}

// TestStatusHuman sanity-checks the human status rendering.
func TestStatusHuman(t *testing.T) {
	addr := startDaemon(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"status", "-addr", addr}, &out, &errBuf); err != nil {
		t.Fatalf("status: %v", err)
	}
	for _, want := range []string{"evals served:", "memo hit rate:", "tape cache:", "service p50/p99:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("status output missing %q:\n%s", want, out.String())
		}
	}
}
