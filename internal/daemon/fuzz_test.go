package daemon

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// FuzzEvalRequest drives the request boundary with bodies decoded as
// handleEval decodes them. normalize never panics; a normalized request
// normalizes again to the same key; spellings of an accepted request
// (policy case, spaces and byte-count units, workload case and alias,
// digest case) share its key; and for a sample of accepted requests,
// the request and its respelling replay on two fresh servers to
// byte-identical payloads, neither answering 5xx. The other half: every
// request that changes one result-affecting field (see mutants) and
// still normalizes to the original's key replays to the original's
// payload, since the memo would serve it the original's answer.
func FuzzEvalRequest(f *testing.F) {
	events := dtbgc.WorkloadByName("GHOST(1)").Scale(0.005).MustGenerate()
	var upload bytes.Buffer
	if err := dtbgc.WriteTrace(&upload, events); err != nil {
		f.Fatal(err)
	}
	d, err := trace.DigestEvents(events)
	if err != nil {
		f.Fatal(err)
	}
	digest := d.String()
	for _, seed := range []string{
		`{"workload":"CFRAC","scale":0.005,"policy":"dtbfm:50k"}`,
		`{"workload":"ghost1","scale":0.005,"policy":" DTBFM:50K ","trigger_bytes":65536}`,
		`{"trace":"` + digest + `","policy":"bandit:eps=0.1","policy_seed":3,"label":"x","telemetry":true}`,
		`{"trace":"` + strings.ToUpper(digest) + `","policy":"fixed4","deadline_ms":1}`,
		`{"workload":"SIS","scale":0.005,"baseline":"live","page_frames":16}`,
		`{"workload":"ESPRESSO(1)","scale":0.005,"policy":"grad:trace=64k","opportunistic":true,"machine":{"mips":25,"trace_bytes_per_sec":8e6}}`,
		`{"workload":"CFRAC","scale":0.02,"policy":"full","trigger_bytes":16384,"machine":{"mips":10,"trace_bytes_per_sec":5e-324}}`,
		`{"workload":"GHOST(2)","baseline":"nogc","page_frames":4,"page_bytes":1024}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var raw EvalRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); err != nil {
			return
		}
		capCost(&raw)
		norm := raw
		if err := norm.normalize(); err != nil {
			return
		}
		key := norm.memoKey()
		again := norm
		if err := again.normalize(); err != nil || again.memoKey() != key {
			t.Fatalf("normalizing %s again: %v, key %s", key, err, again.memoKey())
		}
		variants := respell(raw, norm)
		for _, v := range variants {
			if err := v.normalize(); err != nil || v.memoKey() != key {
				t.Fatalf("respelled as %q, %q, %q: %v, key %s; want key %s", v.Policy, v.Workload, v.TraceDigest, err, v.memoKey(), key)
			}
		}
		var collisions []EvalRequest
		for _, m := range mutants(raw, norm) {
			if mn := m; mn.normalize() == nil && mn.memoKey() == key {
				collisions = append(collisions, m)
			}
		}
		sampled := crc32.ChecksumIEEE([]byte(key))%8 == 0
		if !sampled && len(collisions) == 0 {
			return // replay a sample, and every collision
		}
		raw.DeadlineMs = 0 // a timeout is a 504 by design; the replays check the answer
		code, got := replayFresh(t, upload.Bytes(), raw)
		same := func(what string, r EvalRequest) {
			t.Helper()
			r.DeadlineMs = 0
			vcode, vgot := replayFresh(t, upload.Bytes(), r)
			if code >= 500 || vcode >= 500 || code != vcode {
				t.Fatalf("%s: HTTP %d, %s HTTP %d", key, code, what, vcode)
			}
			if code == http.StatusOK && (!bytes.Equal(got.Result, vgot.Result) || got.Telemetry != vgot.Telemetry) {
				t.Fatalf("%s: %s request replayed to a different payload", key, what)
			}
		}
		if sampled {
			same("respelled", variants[len(variants)-1])
		}
		for _, m := range collisions {
			body, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			same("same-keyed mutant "+string(body), m)
		}
	})
}

// mutants returns raw with one result-affecting field changed per
// request: a policy parameter or the baseline; the trigger, scale or
// policy seed; the label or telemetry; a machine rate, the page frames
// or page bytes; or opportunistic. Some write out in raw a default that
// norm filled in, and so should keep the key; the others should not.
// A request that would be raw unchanged is left out.
func mutants(raw, norm EvalRequest) []EvalRequest {
	var out []EvalRequest
	add := func(set func(*EvalRequest)) {
		r := raw
		set(&r)
		if !reflect.DeepEqual(r, raw) {
			out = append(out, r)
		}
	}
	if p := bumpLastNumber(norm.Policy); p != norm.Policy {
		add(func(r *EvalRequest) { r.Policy = p })
	}
	switch norm.Baseline {
	case "":
		add(func(r *EvalRequest) { r.Policy, r.Baseline = "", "nogc" })
	case "nogc":
		add(func(r *EvalRequest) { r.Baseline = "live" })
	default:
		add(func(r *EvalRequest) { r.Baseline = "nogc" })
	}
	add(func(r *EvalRequest) { r.TriggerBytes = norm.TriggerBytes })
	add(func(r *EvalRequest) { r.TriggerBytes = norm.TriggerBytes + 4096 })
	if norm.Workload != "" {
		add(func(r *EvalRequest) { r.Scale = norm.Scale })
		add(func(r *EvalRequest) { r.Scale = norm.Scale / 2 })
	}
	add(func(r *EvalRequest) { r.PolicySeed = norm.PolicySeed + 1 })
	add(func(r *EvalRequest) { r.Label = norm.Label + "x" })
	add(func(r *EvalRequest) { r.Telemetry = !norm.Telemetry })
	machine := func(mips, rate float64) func(*EvalRequest) {
		return func(r *EvalRequest) { r.Machine = &MachineSpec{MIPS: mips, TraceBytesPer: rate} }
	}
	add(machine(norm.Machine.MIPS, norm.Machine.TraceBytesPer))
	add(machine(2*norm.Machine.MIPS, norm.Machine.TraceBytesPer))
	add(machine(norm.Machine.MIPS, 2*norm.Machine.TraceBytesPer))
	add(func(r *EvalRequest) { r.PageFrames = norm.PageFrames%64 + 1 })
	add(func(r *EvalRequest) { r.PageBytes = norm.PageBytes })
	add(func(r *EvalRequest) { r.PageBytes = norm.PageBytes + minPageBytes })
	add(func(r *EvalRequest) { r.Opportunistic = !norm.Opportunistic })
	return out
}

// bumpLastNumber adds one to the last run of digits in a canonical
// policy spec, which changes its last parameter ("dtbfm:51200",
// "bandit:eps=0.1,arms=8"); a spec without one comes back unchanged.
func bumpLastNumber(spec string) string {
	end := strings.LastIndexAny(spec, "0123456789") + 1
	start := end
	for start > 0 && spec[start-1] >= '0' && spec[start-1] <= '9' {
		start--
	}
	n, err := strconv.ParseUint(spec[start:end], 10, 64)
	if err != nil || n == math.MaxUint64 {
		return spec
	}
	return spec[:start] + strconv.FormatUint(n+1, 10) + spec[end:]
}

// capCost keeps one replay cheap: a fuzzed request may ask for an
// unscaled workload, a scavenge every few bytes or a large resident
// set. The caps live in the harness, not in normalize, which accepts
// every request the daemon serves.
func capCost(r *EvalRequest) {
	if r.Workload != "" && (r.Scale == 0 || r.Scale > 0.005) { //dtbvet:ignore floatexact -- exact zero is the unset-option sentinel
		r.Scale = 0.005
	}
	if r.TriggerBytes != 0 && r.TriggerBytes < 4096 {
		r.TriggerBytes = 4096
	}
	r.PageFrames = min(r.PageFrames, 64)
}

// respell returns raw with its policy, workload and digest spelled
// differently from norm's canonical forms, one change per request,
// and last a request with every change at once.
func respell(raw, norm EvalRequest) []EvalRequest {
	var out []EvalRequest
	add := func(set func(*EvalRequest)) {
		r := raw
		set(&r)
		out = append(out, r)
	}
	all := raw
	if norm.Policy != "" {
		units := unitSpellings(norm.Policy)
		for _, s := range append(units, strings.ToUpper(norm.Policy), " "+norm.Policy+"\t") {
			add(func(r *EvalRequest) { r.Policy = s })
		}
		all.Policy = " " + strings.ToUpper(units[len(units)-1]) + " "
	}
	if norm.Workload != "" {
		alias := strings.NewReplacer("(", "", ")", "").Replace(norm.Workload)
		for _, w := range []string{strings.ToLower(norm.Workload), " " + norm.Workload + " ", alias} {
			add(func(r *EvalRequest) { r.Workload = w })
		}
		all.Workload = " " + strings.ToLower(alias)
	}
	if norm.TraceDigest != "" {
		add(func(r *EvalRequest) { r.TraceDigest = strings.ToUpper(norm.TraceDigest) })
		all.TraceDigest = strings.ToUpper(norm.TraceDigest)
	}
	return append(out, all)
}

// unitSpellings returns a canonical spec whose trailing byte count
// (feedmed, dtbfm, dtbmem, grad's trace) is respelled in each binary
// unit that divides it, and the spec itself first.
func unitSpellings(spec string) []string {
	out := []string{spec}
	i := strings.LastIndexAny(spec, ":=")
	n, err := strconv.ParseUint(spec[i+1:], 10, 64)
	byteCount := strings.HasPrefix(spec, "feedmed:") || strings.HasPrefix(spec, "dtbfm:") ||
		strings.HasPrefix(spec, "dtbmem:") || strings.HasPrefix(spec, "grad:")
	if err != nil || !byteCount || n == 0 {
		return out
	}
	for _, u := range []struct {
		suffix string
		shift  uint
	}{{"k", 10}, {"K", 10}, {"m", 20}, {"M", 20}} {
		if n%(1<<u.shift) == 0 {
			out = append(out, spec[:i+1]+strconv.FormatUint(n>>u.shift, 10)+u.suffix)
		}
	}
	return out
}

// replayFresh serves req on a new server, holding the uploaded trace
// if req names one, so it replays instead of hitting a memo, and
// returns the status and the decoded response.
func replayFresh(t *testing.T, upload []byte, req EvalRequest) (int, EvalResponse) {
	t.Helper()
	h := NewServer(Config{Workers: 1}).Handler()
	rec := httptest.NewRecorder()
	if req.TraceDigest != "" {
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(upload)))
		if rec.Code != http.StatusOK {
			t.Fatalf("upload: HTTP %d: %s", rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
	var resp EvalResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return rec.Code, resp
}

// FuzzTraceUpload drives the upload boundary with arbitrary bytes: any
// body posted to /v1/traces answers 2xx or 4xx, never 5xx or a panic.
// An accepted trace then replays under every policy class with a 2xx
// answer: full, dtbfm:50k and the nogc and live baselines compact on
// sim.Check's event-count cadence, so they meet no birth-bucket span
// the upload's check did not. A nogc run with page_frames set keeps
// every object's page address and cannot compact, so it may run past
// that span: it may answer 422, never 5xx.
func FuzzTraceUpload(f *testing.F) {
	encode := func(events []trace.Event) []byte {
		var buf bytes.Buffer
		if err := dtbgc.WriteTrace(&buf, events); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	ghost := encode(dtbgc.WorkloadByName("GHOST(1)").Scale(0.005).MustGenerate())
	f.Add(ghost)
	f.Add(encode([]trace.Event{trace.Alloc(1, 32, 10), trace.Free(1, 20), trace.Free(1, 30)})) // double free: 422
	f.Add(encode([]trace.Event{trace.Alloc(1, 1<<40, 0), trace.Free(1, 1)}))                   // wide allocation: 422
	f.Add(ghost[:len(ghost)-1])                                                                // torn tail: 400
	f.Add([]byte("garbage, not a trace"))                                                      // bad magic: 400
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewServer(Config{Workers: 1}).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(data)))
		if rec.Code < 200 || rec.Code >= 500 {
			t.Fatalf("upload: HTTP %d: %s", rec.Code, rec.Body)
		}
		if rec.Code >= 300 {
			return
		}
		var info TraceInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("decoding upload response: %v", err)
		}
		for _, ev := range []struct {
			req    EvalRequest
			may422 bool
		}{
			{EvalRequest{TraceDigest: info.Digest, Policy: "full"}, false},
			{EvalRequest{TraceDigest: info.Digest, Policy: "dtbfm:50k"}, false},
			{EvalRequest{TraceDigest: info.Digest, Baseline: "nogc"}, false},
			{EvalRequest{TraceDigest: info.Digest, Baseline: "live"}, false},
			// 1 MiB pages keep the page model cheap on allocations the
			// upload check lets reach tens of gigabytes.
			{EvalRequest{TraceDigest: info.Digest, Baseline: "nogc", PageFrames: 16, PageBytes: 1 << 20}, true},
		} {
			body, err := json.Marshal(ev.req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
			if rec.Code/100 != 2 && !(ev.may422 && rec.Code == http.StatusUnprocessableEntity) {
				t.Fatalf("eval %s of an accepted upload: HTTP %d: %s", body, rec.Code, rec.Body)
			}
		}
	})
}
