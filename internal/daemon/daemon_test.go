package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/audit"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// directEval runs req through the library the way dtbsim would —
// no daemon, no pool, no caches — and returns the result plus the
// telemetry lines. This is the oracle the daemon must match bit for
// bit.
func directEval(t *testing.T, req EvalRequest) (*dtbgc.Result, string) {
	t.Helper()
	if err := req.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	var telBuf bytes.Buffer
	var tw *dtbgc.TelemetryWriter
	var probe dtbgc.Probe
	if req.Telemetry {
		tw = dtbgc.NewTelemetryWriter(&telBuf)
		probe = tw
	}
	cfg, err := req.config(probe)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	var results []*sim.Result
	if req.TraceDigest != "" {
		t.Fatalf("directEval drives workloads; replay traces inline")
	}
	w, err := dtbgc.LookupWorkload(req.Workload)
	if err != nil {
		t.Fatalf("LookupWorkload: %v", err)
	}
	results, err = engine.Replay(context.Background(), engine.Source(w.Scale(req.Scale).GenerateTo), []sim.Config{cfg})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if tw != nil && tw.Err() != nil {
		t.Fatalf("telemetry: %v", tw.Err())
	}
	return results[0], telBuf.String()
}

func decodeResult(t *testing.T, resp *EvalResponse) *dtbgc.Result {
	t.Helper()
	var got dtbgc.Result
	if err := json.Unmarshal(resp.Result, &got); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return &got
}

func telemetryLines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

func newTestDaemon(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, NewClient(hs.URL)
}

// TestEvalWorkloadBitIdentity is the core serving guarantee: the
// daemon's cold answer equals a direct library run field for field and
// telemetry line for line, and the memo-warm answer re-serves the
// identical bytes.
func TestEvalWorkloadBitIdentity(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2})
	req := EvalRequest{
		Workload:  "CFRAC",
		Scale:     0.1,
		Policy:    "dtbfm:50k",
		Label:     "e2e/cfrac",
		Telemetry: true,
	}
	want, wantTel := directEval(t, req)

	cold, err := c.Eval(context.Background(), &req)
	if err != nil {
		t.Fatalf("cold eval: %v", err)
	}
	if cold.Source != "cold" {
		t.Fatalf("first eval Source = %q, want cold", cold.Source)
	}
	if diffs := audit.DiffResults(decodeResult(t, cold), want); len(diffs) > 0 {
		t.Fatalf("cold result differs from direct run:\n%s", strings.Join(diffs, "\n"))
	}
	if diffs := audit.DiffTelemetry(telemetryLines(cold.Telemetry), telemetryLines(wantTel)); len(diffs) > 0 {
		t.Fatalf("cold telemetry differs from direct run:\n%s", strings.Join(diffs, "\n"))
	}

	warm, err := c.Eval(context.Background(), &req)
	if err != nil {
		t.Fatalf("warm eval: %v", err)
	}
	if warm.Source != "memo" {
		t.Fatalf("second eval Source = %q, want memo", warm.Source)
	}
	if !bytes.Equal(warm.Result, cold.Result) {
		t.Fatalf("memo result bytes differ from cold:\ncold: %s\nwarm: %s", cold.Result, warm.Result)
	}
	if warm.Telemetry != cold.Telemetry {
		t.Fatalf("memo telemetry differs from cold")
	}
}

// TestEvalTraceBitIdentity covers the uploaded-trace path: unknown
// digest is a typed 404, an upload fixes it, the replay over the
// cached tape equals simulating the events directly, and a repeat is
// a memo hit.
func TestEvalTraceBitIdentity(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2})
	events := dtbgc.WorkloadByName("GHOST(1)").Scale(0.05).MustGenerate()
	var enc bytes.Buffer
	if err := dtbgc.WriteTrace(&enc, events); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	d, err := trace.DigestEvents(events)
	if err != nil {
		t.Fatalf("DigestEvents: %v", err)
	}
	digest := d.String()

	req := EvalRequest{TraceDigest: digest, Policy: "full", Label: "e2e/ghost1"}
	if _, err := c.Eval(context.Background(), &req); err == nil {
		t.Fatalf("eval before upload succeeded; want unknown-trace error")
	} else {
		var ut *UnknownTraceError
		if !errors.As(err, &ut) {
			t.Fatalf("eval before upload: error = %v, want *UnknownTraceError", err)
		}
		if ut.Digest != digest {
			t.Fatalf("UnknownTraceError.Digest = %s, want %s", ut.Digest, digest)
		}
	}

	info, err := c.UploadTrace(context.Background(), bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatalf("UploadTrace: %v", err)
	}
	if info.Digest != digest {
		t.Fatalf("upload digest = %s, want %s (stream digest must equal DigestEvents)", info.Digest, digest)
	}
	if info.Events != len(events) {
		t.Fatalf("upload events = %d, want %d", info.Events, len(events))
	}

	resp, err := c.Eval(context.Background(), &req)
	if err != nil {
		t.Fatalf("eval after upload: %v", err)
	}
	if resp.Source != "tape" {
		t.Fatalf("trace eval Source = %q, want tape", resp.Source)
	}
	want, err := sim.Run(events, mustConfig(t, req))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if diffs := audit.DiffResults(decodeResult(t, resp), want); len(diffs) > 0 {
		t.Fatalf("trace eval differs from direct Simulate:\n%s", strings.Join(diffs, "\n"))
	}

	again, err := c.Eval(context.Background(), &req)
	if err != nil {
		t.Fatalf("repeat eval: %v", err)
	}
	if again.Source != "memo" {
		t.Fatalf("repeat eval Source = %q, want memo", again.Source)
	}
	if !bytes.Equal(again.Result, resp.Result) {
		t.Fatalf("memo trace result differs from tape result")
	}
}

// TestUploadRejectsTraceDefects: a trace that decodes but that the
// simulator rejects (here a double free) is refused at upload with 422
// and the simulator's own error text. It is neither cached nor counted,
// so an eval by its digest is an unknown trace (404), never a replay
// that fails with 500.
func TestUploadRejectsTraceDefects(t *testing.T) {
	s, c := newTestDaemon(t, Config{Workers: 1})
	events := []trace.Event{trace.Alloc(1, 32, 10), trace.Free(1, 20), trace.Free(1, 30)}
	var enc bytes.Buffer
	if err := dtbgc.WriteTrace(&enc, events); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	_, err := c.UploadTrace(context.Background(), &enc)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity {
		t.Fatalf("upload error = %v, want HTTP 422", err)
	}
	if want := "sim: event 2: double free of object 1"; se.Message != want {
		t.Fatalf("upload error text %q, want %q", se.Message, want)
	}
	if m := s.Metrics(); m.TraceUploads != 0 || m.TapeCacheTraces != 0 {
		t.Fatalf("rejected upload was counted or cached: %+v", m)
	}

	d, err := trace.DigestEvents(events)
	if err != nil {
		t.Fatalf("DigestEvents: %v", err)
	}
	_, err = c.Eval(context.Background(), &EvalRequest{TraceDigest: d.String(), Policy: "full"})
	var ut *UnknownTraceError
	if !errors.As(err, &ut) {
		t.Fatalf("eval of a rejected trace: error = %v, want *UnknownTraceError (404)", err)
	}
}

func mustConfig(t *testing.T, req EvalRequest) sim.Config {
	t.Helper()
	if err := req.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	cfg, err := req.config(nil)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	return cfg
}

// TestEvalConcurrentBitIdentity hammers the daemon with distinct
// concurrent requests and checks every response against its serial
// oracle — concurrency must not leak state between evaluations (the
// per-request-sink discipline and the pool fix both under load).
func TestEvalConcurrentBitIdentity(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 4, QueueDepth: 64})
	reqs := []EvalRequest{
		{Workload: "CFRAC", Scale: 0.1, Policy: "full", Label: "cc/full", Telemetry: true},
		{Workload: "CFRAC", Scale: 0.1, Policy: "dtbfm:50k", Label: "cc/dtbfm", Telemetry: true},
		{Workload: "GHOST(1)", Scale: 0.05, Policy: "fixed4", Label: "cc/ghost", Telemetry: true},
		{Workload: "ESPRESSO(1)", Scale: 0.1, Baseline: "live", Label: "cc/live", Telemetry: true},
		{Workload: "CFRAC", Scale: 0.1, Policy: "full", TriggerBytes: 2 << 20, Label: "cc/trig", Telemetry: true},
		{Workload: "GHOST(2)", Scale: 0.05, Baseline: "nogc", Label: "cc/nogc", Telemetry: true},
	}
	type oracle struct {
		result *dtbgc.Result
		tel    string
	}
	oracles := make([]oracle, len(reqs))
	for i, r := range reqs {
		res, tel := directEval(t, r)
		oracles[i] = oracle{result: res, tel: tel}
	}

	const rounds = 3 // repeats exercise memo hits racing cold evals
	errs := make([]error, len(reqs)*rounds)
	resps := make([]*EvalResponse, len(reqs)*rounds)
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i := range reqs {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				r := reqs[i]
				resps[slot], errs[slot] = c.Eval(context.Background(), &r)
			}(round*len(reqs)+i, i)
		}
	}
	wg.Wait()

	for slot, err := range errs {
		i := slot % len(reqs)
		if err != nil {
			t.Fatalf("concurrent eval %s: %v", reqs[i].Label, err)
		}
		if diffs := audit.DiffResults(decodeResult(t, resps[slot]), oracles[i].result); len(diffs) > 0 {
			t.Errorf("concurrent eval %s differs from serial oracle:\n%s", reqs[i].Label, strings.Join(diffs, "\n"))
		}
		if diffs := audit.DiffTelemetry(telemetryLines(resps[slot].Telemetry), telemetryLines(oracles[i].tel)); len(diffs) > 0 {
			t.Errorf("concurrent telemetry %s differs from serial oracle:\n%s", reqs[i].Label, strings.Join(diffs, "\n"))
		}
	}
}

// TestWarmCacheSpeedup pins the serving economics: a memo hit must be
// at least 5× faster than the cold evaluation it replaces (the ISSUE's
// acceptance floor; in practice it is orders of magnitude).
func TestWarmCacheSpeedup(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 1})
	req := EvalRequest{Workload: "CFRAC", Policy: "full", Label: "speedup"}
	cold, err := c.Eval(context.Background(), &req)
	if err != nil {
		t.Fatalf("cold eval: %v", err)
	}
	if cold.Source != "cold" {
		t.Fatalf("first eval Source = %q, want cold", cold.Source)
	}
	// Best warm time of a few tries, vs the single cold run: scheduler
	// noise can slow one warm hit, but cannot speed up the cold replay.
	warm := cold.ServiceMs
	for i := 0; i < 5; i++ {
		resp, err := c.Eval(context.Background(), &req)
		if err != nil {
			t.Fatalf("warm eval: %v", err)
		}
		if resp.Source != "memo" {
			t.Fatalf("warm eval Source = %q, want memo", resp.Source)
		}
		if resp.ServiceMs < warm {
			warm = resp.ServiceMs
		}
	}
	if warm*5 > cold.ServiceMs {
		t.Fatalf("warm cache speedup below 5x: cold %.3fms, best warm %.3fms", cold.ServiceMs, warm)
	}
}

// TestAdmissionBackpressure saturates a 1-worker, 1-deep daemon and
// checks the contract: the overflow request gets a typed 429 with a
// Retry-After hint, while the queued request is admitted and completes
// normally once the slot frees — rejections never corrupt in-flight
// work.
func TestAdmissionBackpressure(t *testing.T) {
	s, c := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})

	// Occupy the only worker slot directly, so admission state is
	// deterministic without timing a slow evaluation.
	s.slots <- struct{}{}

	queued := EvalRequest{Workload: "CFRAC", Scale: 0.1, Policy: "full", Label: "bp/queued"}
	var queuedResp *EvalResponse
	var queuedErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		queuedResp, queuedErr = c.Eval(context.Background(), &queued)
	}()
	waitFor(t, "request queued", func() bool { return s.waiting.Load() == 1 })

	over := EvalRequest{Workload: "CFRAC", Scale: 0.1, Policy: "full", Label: "bp/overflow"}
	_, err := c.Eval(context.Background(), &over)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow eval: error = %v, want *OverloadedError", err)
	}
	if oe.RetryAfter != 2*time.Second {
		t.Fatalf("Retry-After = %v, want 2s", oe.RetryAfter)
	}

	<-s.slots // free the slot; the queued request proceeds
	wg.Wait()
	if queuedErr != nil {
		t.Fatalf("queued eval failed after rejection: %v", queuedErr)
	}
	if queuedResp.Source != "cold" {
		t.Fatalf("queued eval Source = %q, want cold", queuedResp.Source)
	}

	snap := s.Metrics()
	if snap.Rejected != 1 {
		t.Fatalf("metrics Rejected = %d, want 1", snap.Rejected)
	}
	if snap.MemoHits+snap.ColdEvals != snap.EvalsServed {
		t.Fatalf("serving identity broken: memo %d + cold %d != served %d",
			snap.MemoHits, snap.ColdEvals, snap.EvalsServed)
	}
}

// TestEvalDeadline504 runs an unscaled evaluation under a 1ms
// deadline: the job-originated expiry must surface as a 504 — on the
// old pool classification it was swallowed and the daemon would have
// served a nil result as success.
func TestEvalDeadline504(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 1})
	req := EvalRequest{Workload: "GHOST(2)", Policy: "full", DeadlineMs: 1, Label: "deadline"}
	_, err := c.Eval(context.Background(), &req)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("deadline eval: error = %v, want *StatusError", err)
	}
	if se.Status != http.StatusGatewayTimeout {
		t.Fatalf("deadline eval status = %d, want 504", se.Status)
	}
}

// TestShutdownDrains pins graceful termination: Shutdown closes the
// listener but waits for the queued evaluation to finish, and the
// client still receives its full 200 response.
func TestShutdownDrains(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s.Start(ln)
	c := NewClient(ln.Addr().String())
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	s.slots <- struct{}{} // hold the worker so the eval stays queued
	req := EvalRequest{Workload: "CFRAC", Scale: 0.1, Policy: "full", Label: "drain"}
	var resp *EvalResponse
	var evalErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, evalErr = c.Eval(context.Background(), &req)
	}()
	waitFor(t, "request queued", func() bool { return s.waiting.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close the listener, then release the
	// slot; the in-flight request must still run to completion.
	waitFor(t, "listener closed", func() bool {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			return true
		}
		//dtbvet:ignore errsink -- probe connection: the dial succeeding is the signal, the close result is noise
		conn.Close()
		return false
	})
	<-s.slots
	wg.Wait()
	if evalErr != nil {
		t.Fatalf("in-flight eval failed during drain: %v", evalErr)
	}
	if resp.Source != "cold" {
		t.Fatalf("in-flight eval Source = %q, want cold", resp.Source)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestEvalBadRequests spot-checks the 400 surface.
func TestEvalBadRequests(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 1})
	cases := []EvalRequest{
		{},                                     // no source
		{Workload: "CFRAC", TraceDigest: "ab"}, // both sources
		{Workload: "NOSUCH", Policy: "full"},
		{Workload: "CFRAC", Policy: "full", Baseline: "live"},
		{Workload: "CFRAC", Baseline: "bogus"},
		{Workload: "CFRAC", Policy: "notapolicy:xyz"},
		{TraceDigest: "zz", Policy: "full"},
		{Workload: "CFRAC", Policy: "full", Scale: -1},
		{Workload: "CFRAC", Policy: "full", PageFrames: -1},
		{Workload: "CFRAC", Policy: "full", DeadlineMs: -5},
	}
	for i, req := range cases {
		_, err := c.Eval(context.Background(), &req)
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
			t.Errorf("case %d (%+v): error = %v, want 400 StatusError", i, req, err)
		}
	}
}

// TestMemoKeyDistinguishesKnobs: requests differing in any
// result-affecting knob must not collide in the memo table.
func TestMemoKeyDistinguishesKnobs(t *testing.T) {
	base := EvalRequest{Workload: "CFRAC", Policy: "full"}
	variants := []func(*EvalRequest){
		func(r *EvalRequest) { r.Workload = "GHOST(1)" },
		func(r *EvalRequest) { r.Scale = 0.5 },
		func(r *EvalRequest) { r.Policy = "dtbfm:50k" },
		func(r *EvalRequest) { r.Policy = ""; r.Baseline = "nogc" },
		func(r *EvalRequest) { r.Machine = &MachineSpec{MIPS: 25, TraceBytesPer: 8e6} },
		func(r *EvalRequest) { r.TriggerBytes = 2 << 20 },
		func(r *EvalRequest) { r.PolicySeed = 7 },
		func(r *EvalRequest) { r.Opportunistic = true },
		func(r *EvalRequest) { r.PageFrames = 64 },
		func(r *EvalRequest) { r.Label = "other" },
		func(r *EvalRequest) { r.Telemetry = true },
	}
	canon := base
	if err := canon.normalize(); err != nil {
		t.Fatalf("normalize base: %v", err)
	}
	baseKey := canon.memoKey()
	seen := map[string]int{baseKey: -1}
	for i, mutate := range variants {
		r := base
		mutate(&r)
		if err := r.normalize(); err != nil {
			t.Fatalf("normalize variant %d: %v", i, err)
		}
		key := r.memoKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("variant %d collides with %d: key %q", i, prev, key)
		}
		seen[key] = i
	}
	// And the serving knob must NOT split the key: a deadline-bounded
	// request may reuse the unbounded result.
	r := base
	r.DeadlineMs = 5000
	if err := r.normalize(); err != nil {
		t.Fatalf("normalize deadline variant: %v", err)
	}
	if r.memoKey() != baseKey {
		t.Errorf("DeadlineMs changed the memo key; it is a serving knob, not a result knob")
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
