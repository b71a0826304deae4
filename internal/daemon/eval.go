// Package daemon is the simulation-as-a-service layer: a long-running
// HTTP/JSON server (dtbd) that accepts policy-evaluation requests —
// a workload or an uploaded trace × a policy spec × a machine model —
// replays them through the engine on a bounded set of admission
// slots, and returns results bit-identical to the CLI path over the
// same inputs.
//
// The serving economics rest on two content-addressed caches (see
// cache.go): uploaded traces are stream-hashed at decode time into a
// trace.Digest that keys a decoded-tape LRU, and every normalized
// request keys a memo of the payload served for it, so one warm
// process answers a repeated request in a table lookup instead of a
// cold CLI start that re-decodes and re-simulates everything.
// Admission control (a bounded number of worker slots plus a bounded
// wait queue, 429 + Retry-After on overflow) keeps thousands of
// concurrent clients degrading gracefully instead of piling unbounded
// replays onto the box; SIGTERM drains in-flight evaluations before
// exit.
//
// Everything here observes the repo's determinism discipline except
// wall-clock metrics: serving latencies are real time by nature, and
// internal/daemon + cmd/dtbd carry dtbvet's serving-package exemption
// for exactly that — simulation results never depend on the clock.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// MachineSpec is the wire form of the simulated machine model.
type MachineSpec struct {
	MIPS          float64 `json:"mips"`
	TraceBytesPer float64 `json:"trace_bytes_per_sec"`
}

// EvalRequest asks for one collector evaluation. Exactly one of
// Workload/TraceDigest selects the event source, and at most one of
// Policy/Baseline selects the collector (an empty Baseline means
// Policy, mirroring dtbsim's flags). Zero-valued knobs take the same
// defaults the CLIs use. The server normalizes a request into one
// canonical spelling before anything else reads it, and the JSON of
// the normalized request is the memo key, so "-trigger 1048576" and
// the default, or "dtbfm:50k" and "DTBFM:51200", hit the same entry.
type EvalRequest struct {
	// Workload names a paper workload ("CFRAC", "GHOST(1)", ...);
	// Scale shrinks it (0 = 1.0). Scale conflicts with TraceDigest for
	// the same reason dtbsim rejects -scale with -trace.
	Workload string  `json:"workload,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	// TraceDigest is the hex content digest of a previously uploaded
	// trace (POST /v1/traces). An unknown digest fails with 404 and
	// ErrUnknownTrace so clients can upload and retry.
	TraceDigest string `json:"trace,omitempty"`

	// Policy is a spec for dtbgc.ParsePolicy ("full", "dtbfm:50k",
	// ...); Baseline is "nogc" or "live".
	Policy   string `json:"policy,omitempty"`
	Baseline string `json:"baseline,omitempty"`

	Machine       *MachineSpec `json:"machine,omitempty"`
	TriggerBytes  uint64       `json:"trigger_bytes,omitempty"`
	PolicySeed    uint64       `json:"policy_seed,omitempty"`
	Opportunistic bool         `json:"opportunistic,omitempty"`
	PageFrames    int          `json:"page_frames,omitempty"`
	PageBytes     uint64       `json:"page_bytes,omitempty"`

	// Label tags the run exactly as SimOptions.Label does: it feeds
	// adaptive-policy seed derivation and every telemetry line, so it
	// is part of the memo key. Leave "" to match dtbsim's no-telemetry
	// invocation.
	Label string `json:"label,omitempty"`
	// Telemetry requests the run's JSON-lines telemetry stream in the
	// response, captured by a per-request sink (never shared between
	// requests — see the sharing contract on sim.TelemetryWriter).
	Telemetry bool `json:"telemetry,omitempty"`

	// DeadlineMs bounds the evaluation itself; past it the replay
	// aborts at its next batch boundary and the request fails with
	// 504. It is a serving knob, not a result-affecting one, so it is
	// NOT part of the memo key.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`

	// What normalize parsed: the policy (nil for a baseline), the
	// digest of a trace request and the scaled profile of a workload
	// request. Being unexported, they stay out of the wire form and
	// the memo key.
	policy  dtbgc.Policy
	digest  trace.Digest
	profile dtbgc.Workload
}

// evalPayload is the memoized portion of an eval response: everything
// deterministic for the key. The memo keeps the payload a cold
// evaluation served, the result already marshaled, so a warm hit
// re-serves byte-identical JSON.
type evalPayload struct {
	Result    json.RawMessage
	Telemetry string
}

// EvalResponse is the POST /v1/eval payload.
type EvalResponse struct {
	// Source says how the evaluation was served: "memo" (table
	// lookup), "tape" (replayed over a cached decoded tape) or "cold"
	// (replayed from scratch).
	Source string `json:"source"`
	// ServiceMs is the server-side wall time for this request.
	ServiceMs float64 `json:"service_ms"`
	// Result is the marshaled dtbgc.Result, bit-identical across
	// memo/tape/cold for the same key.
	Result json.RawMessage `json:"result"`
	// Telemetry carries the run's JSON-lines stream when requested.
	Telemetry string `json:"telemetry,omitempty"`
}

// ErrUnknownTrace reports an eval against a digest the daemon does
// not hold (never uploaded, or evicted): upload the trace and retry.
type ErrUnknownTrace struct{ Digest string }

func (e *ErrUnknownTrace) Error() string {
	return fmt.Sprintf("daemon: unknown trace %s: upload it (POST /v1/traces) and retry", e.Digest)
}

// minPageBytes is the smallest page size a request may set.
const minPageBytes = 512

// maxPageFrames is the largest page_frames a request may set. The vmem
// model holds about 96 B per touched page until its page map reaches
// the frame count, so the cap bounds that map at about 6 MiB (a
// 256 MiB resident set at 4 KB pages).
const maxPageFrames = 1 << 16

// normalize validates the request and rewrites it in place into its
// canonical form; it is the only place a request is parsed, and any
// error it returns is the client's (HTTP 400). The CLI defaults are
// filled in, Policy becomes core.PolicySpec's spelling of the parsed
// policy, Workload the profile's own Name and TraceDigest lowercase
// hex. The parsed policy, digest and scaled profile are kept for
// config and evaluate. Two spellings of one evaluation normalize to
// equal requests, and so to one memo key. Requests that would let one
// evaluation take unbounded memory are refused: page_frames may not
// exceed maxPageFrames (65536) and page_bytes may not be below
// minPageBytes (512).
func (r *EvalRequest) normalize() error {
	if (r.Workload == "") == (r.TraceDigest == "") {
		return errors.New("exactly one of workload or trace must be set")
	}
	if r.Policy != "" && r.Baseline != "" {
		return fmt.Errorf("policy %q conflicts with baseline %q: a run is driven by one or the other", r.Policy, r.Baseline)
	}
	switch r.Baseline {
	case "", "nogc", "live":
	default:
		return fmt.Errorf("unknown baseline %q (nogc or live)", r.Baseline)
	}
	if r.Baseline == "" {
		p, err := dtbgc.ParsePolicy(r.Policy)
		if err != nil {
			return err
		}
		spec, err := core.PolicySpec(p)
		if err != nil {
			return err
		}
		r.Policy, r.policy = spec, p
	}
	if r.TraceDigest != "" {
		if r.Scale != 0 { //dtbvet:ignore floatexact -- exact zero is the unset-option sentinel; no arithmetic feeds it
			return errors.New("scale applies to generated workloads and cannot rescale a recorded trace")
		}
		d, err := trace.ParseDigest(r.TraceDigest)
		if err != nil {
			return err
		}
		r.TraceDigest, r.digest = d.String(), d
	} else {
		w, err := dtbgc.LookupWorkload(r.Workload)
		if err != nil {
			return err
		}
		if r.Scale == 0 { //dtbvet:ignore floatexact -- exact zero is the unset-option sentinel; no arithmetic feeds it
			r.Scale = 1
		}
		if !(r.Scale > 0) || math.IsInf(r.Scale, 1) {
			return fmt.Errorf("scale %v must be positive and finite", r.Scale)
		}
		r.Workload, r.profile = w.Name, w.Scale(r.Scale)
	}
	if r.Machine == nil {
		m := dtbgc.PaperMachine()
		r.Machine = &MachineSpec{MIPS: m.MIPS, TraceBytesPer: m.TraceBytesPer}
	}
	if err := (dtbgc.Machine{MIPS: r.Machine.MIPS, TraceBytesPer: r.Machine.TraceBytesPer}).Validate(); err != nil {
		return err
	}
	if r.TriggerBytes == 0 {
		r.TriggerBytes = 1 << 20 // the simulator's own default
	}
	if r.PageFrames < 0 {
		return fmt.Errorf("page_frames %d cannot be negative", r.PageFrames)
	}
	if r.PageFrames > maxPageFrames {
		return fmt.Errorf("page_frames %d exceeds the limit of %d", r.PageFrames, maxPageFrames)
	}
	// Smaller pages would let the vmem page map grow with nearly every
	// byte a trace touches.
	if r.PageBytes != 0 && r.PageBytes < minPageBytes {
		return fmt.Errorf("page_bytes %d is below the minimum of %d", r.PageBytes, minPageBytes)
	}
	if r.PageFrames > 0 && r.PageBytes == 0 {
		r.PageBytes = 4096
	}
	if r.DeadlineMs < 0 {
		return fmt.Errorf("deadline_ms %d cannot be negative", r.DeadlineMs)
	}
	return nil
}

// memoKey is the JSON encoding of the normalized request with its one
// serving knob, DeadlineMs, cleared. The struct fixes the field order
// and floats encode shortest-round-trip, so equal requests always
// collide and unequal ones never do. A field added to EvalRequest
// joins the key unless it is cleared here, so forgetting one costs a
// memo miss, never a wrong hit.
func (r *EvalRequest) memoKey() string {
	k := *r
	k.DeadlineMs = 0
	b, err := json.Marshal(&k)
	if err != nil {
		// normalize leaves only finite floats, which always encode.
		panic("daemon: memo key of an unnormalized request: " + err.Error())
	}
	return string(b)
}

// config maps the normalized request onto the same simulator config
// dtbsim's options build — the single place the daemon's and the CLI's
// configuration can agree or drift, pinned by the bit-identity tests.
func (r *EvalRequest) config(probe dtbgc.Probe) sim.Config {
	cfg := sim.Config{
		Mode:          sim.ModePolicy,
		Policy:        r.policy,
		PolicySeed:    r.PolicySeed,
		Machine:       sim.Machine{MIPS: r.Machine.MIPS, TraceBytesPer: r.Machine.TraceBytesPer},
		TriggerBytes:  r.TriggerBytes,
		Opportunistic: r.Opportunistic,
		PageFrames:    r.PageFrames,
		PageBytes:     r.PageBytes,
		Probe:         probe,
		Label:         r.Label,
	}
	switch r.Baseline {
	case "nogc":
		cfg.Mode = sim.ModeNoGC
	case "live":
		cfg.Mode = sim.ModeLive
	}
	return cfg
}

// evaluate replays one normalized request and returns the payload the
// memo keeps, and whether it replayed a cached tape. The caller holds
// an admission slot, which is what bounds concurrent replays. The
// replay runs under the request's context, so a client that goes away
// cancels it (context.Canceled), and under DeadlineMs when set, whose
// expiry surfaces as context.DeadlineExceeded.
func (s *Server) evaluate(ctx context.Context, req *EvalRequest) (payload evalPayload, tapeHit bool, err error) {
	var telBuf bytes.Buffer
	var tw *dtbgc.TelemetryWriter
	var probe dtbgc.Probe
	if req.Telemetry {
		// Per-request sink over a per-request buffer: the enforced
		// pattern. A shared sink would interleave concurrent requests'
		// streams and let one request's sticky write error silence
		// another's telemetry.
		tw = dtbgc.NewTelemetryWriter(&telBuf)
		probe = tw
	}
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	cfgs := []sim.Config{req.config(probe)}
	var results []*sim.Result
	if req.TraceDigest != "" {
		events, ok := s.tapes.get(req.digest)
		if !ok {
			return evalPayload{}, false, &ErrUnknownTrace{Digest: req.TraceDigest}
		}
		tapeHit = true
		results, err = engine.ReplayBatches(ctx, engine.SliceBatchSource(events), cfgs)
	} else {
		g, gerr := req.profile.Generator()
		if gerr != nil {
			return evalPayload{}, false, gerr
		}
		results, err = engine.ReplayBatches(ctx, engine.ReaderBatchSource(g), cfgs)
	}
	if err != nil {
		return evalPayload{}, tapeHit, err
	}
	if tw != nil {
		if werr := tw.Err(); werr != nil {
			return evalPayload{}, tapeHit, fmt.Errorf("capturing telemetry: %w", werr)
		}
	}
	raw, err := json.Marshal(results[0])
	if err != nil {
		return evalPayload{}, tapeHit, err
	}
	return evalPayload{Result: raw, Telemetry: telBuf.String()}, tapeHit, nil
}

// isDeadline reports an evaluation that ran past DeadlineMs (as
// opposed to the client going away, which cancels the request
// context).
func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }
