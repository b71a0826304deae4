package audit

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// Options parameterizes one differential-oracle pass over a workload.
// The zero value audits at paper scale with the paper's constraints.
type Options struct {
	// Scale multiplies the workload length; zero means 1.0 (paper
	// scale).
	Scale float64
	// TriggerBytes is the scavenge interval; zero means 1 MB.
	TriggerBytes uint64
	// MemMaxBytes is DTBMEM's constraint; zero means 3000 KB.
	MemMaxBytes uint64
	// TraceMaxBytes is FEEDMED's and DTBFM's budget; zero means 50 KB.
	TraceMaxBytes uint64
	// ChunkSizes are the io chunk lengths the re-chunking metamorphic
	// test streams the encoded trace through; results must not depend
	// on them. Nil means {777, 64 KB} — an odd size that splits varints
	// across reads, and a bulk size.
	ChunkSizes []int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 { //dtbvet:ignore floatexact -- exact zero is the unset-option sentinel; no arithmetic feeds it
		o.Scale = 1
	}
	if o.TriggerBytes == 0 {
		o.TriggerBytes = 1 << 20
	}
	if o.MemMaxBytes == 0 {
		o.MemMaxBytes = 3000 * 1024
	}
	if o.TraceMaxBytes == 0 {
		o.TraceMaxBytes = 50 * 1024
	}
	if o.ChunkSizes == nil {
		o.ChunkSizes = []int{777, 64 * 1024}
	}
	return o
}

// Report is the outcome of auditing one workload.
type Report struct {
	Workload   string
	Collectors []string    // audited collector names, matrix order
	Runs       int         // total simulation runs executed
	Violations []Violation // invariant breaches (live auditor + history checks)
	Diffs      []string    // differential/metamorphic mismatches
}

// Clean reports whether the workload passed every check.
func (r *Report) Clean() bool { return len(r.Violations) == 0 && len(r.Diffs) == 0 }

// Err returns nil for a clean report, or an error summarizing what
// failed (first few findings spelled out).
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	const show = 5
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %s: %d violation(s), %d diff(s)", r.Workload, len(r.Violations), len(r.Diffs))
	shown := 0
	for _, v := range r.Violations {
		if shown == show {
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
		shown++
	}
	for _, d := range r.Diffs {
		if shown == show {
			break
		}
		b.WriteString("; ")
		b.WriteString(d)
		shown++
	}
	if rest := len(r.Violations) + len(r.Diffs) - shown; rest > 0 {
		fmt.Fprintf(&b, "; and %d more", rest)
	}
	return fmt.Errorf("%s", b.String())
}

// auditPolicySeed fixes the adaptive policies' PolicySeed for every
// oracle path: the seed derivation is (PolicySeed, Label, collector),
// so the fast fan-out, the solo reference run and the streamed run all
// mint instances with identical initial state — any divergence the
// differential diff finds is a real replay bug, never seed skew.
const auditPolicySeed = 0xD7B0A4D1

// collectorConfigs is the oracle's run matrix over one trace: the six
// Table-1 policies with the paper's constraints, the adaptive
// (state-carrying) policies under a fixed seed, plus the NoGC and Live
// baselines, labelled "workload/collector" like the evaluation
// harness. Keeping the adaptive policies in the differential matrix is
// the oracle's replay rule for learned state: their Results, Histories
// and telemetry streams — including the per-decision arm and feature
// digests — must be bit-identical across all three engine paths.
func collectorConfigs(name string, opts Options) []sim.Config {
	policies := []core.Policy{
		core.Full{}, core.Fixed{K: 1}, core.Fixed{K: 4},
		core.DtbMem{MemMax: opts.MemMaxBytes},
		core.FeedMed{TraceMax: opts.TraceMaxBytes},
		core.DtbFM{TraceMax: opts.TraceMaxBytes},
	}
	adaptive := []core.Policy{
		core.Bandit{Eps: 0.1},
		core.Bandit{UCB: 1.5},
		core.Gradient{TraceMax: opts.TraceMaxBytes},
	}
	cfgs := make([]sim.Config, 0, len(policies)+len(adaptive)+2)
	for _, p := range policies {
		cfgs = append(cfgs, sim.Config{
			Mode: sim.ModePolicy, Policy: p,
			TriggerBytes: opts.TriggerBytes,
			Label:        name + "/" + p.Name(),
		})
	}
	for _, p := range adaptive {
		cfgs = append(cfgs, sim.Config{
			Mode: sim.ModePolicy, Policy: p,
			TriggerBytes: opts.TriggerBytes,
			Label:        name + "/" + p.Name(),
			PolicySeed:   auditPolicySeed,
		})
	}
	cfgs = append(cfgs,
		sim.Config{Mode: sim.ModeNoGC, Label: name + "/NoGC"},
		sim.Config{Mode: sim.ModeLive, Label: name + "/Live"})
	return cfgs
}

// AuditWorkload runs the full correctness harness over one workload:
//
//  1. The fast path — every collector fed by one engine.ReplayBatches
//     pass over the generator read in batches, bucketed boundary
//     queries — runs under the live Auditor with per-run telemetry
//     capture.
//  2. The reference path re-runs every collector solo (sim.Run over
//     the materialized trace) with Config.ReferenceScan routing every
//     boundary query through the O(n) tail scan and
//     Config.UncompactedTape pinning the whole trace in the tape;
//     Result, History and the telemetry stream must match the fast
//     (bucketed, epoch-compacted) path bit for bit.
//  3. The metamorphic path re-runs every collector through the binary
//     codec (trace.WriteAll -> RunReader) with the encoded bytes
//     delivered in deliberately awkward chunk sizes and no probe
//     attached; re-chunking and probe attachment must not change any
//     result.
//  4. Every fast-path history replays through CheckHistory, and
//     through CheckBoundaryDiscipline for the stock policies.
//
// The returned Report collects everything found; an error is returned
// only when a run itself fails (malformed trace, cancellation), not
// when checks fail.
func AuditWorkload(ctx context.Context, p workload.Profile, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	scaled := p.Scale(opts.Scale)
	report := &Report{Workload: scaled.Name}

	cfgs := collectorConfigs(scaled.Name, opts)
	auditor := NewAuditor()
	fastTel := make([]*bytes.Buffer, len(cfgs))
	fastCfgs := make([]sim.Config, len(cfgs))
	for i, cfg := range cfgs {
		fastTel[i] = &bytes.Buffer{}
		cfg.Probe = sim.Probes(auditor, sim.NewTelemetryWriter(fastTel[i]))
		fastCfgs[i] = cfg
	}
	g, err := scaled.Generator()
	if err != nil {
		return nil, fmt.Errorf("audit: %s: generate: %w", scaled.Name, err)
	}
	fast, err := engine.ReplayBatches(ctx, engine.ReaderBatchSource(g), fastCfgs)
	if err != nil {
		return nil, fmt.Errorf("audit: %s: fast path: %w", scaled.Name, err)
	}
	report.Runs += len(fast)
	report.Violations = append(report.Violations, auditor.Violations()...)

	// Materialize the trace once for the solo reference runs, and
	// encode it once for the re-chunking runs. The generator is
	// deterministic, so this is the same event sequence the fast path
	// streamed.
	events, err := scaled.Generate()
	if err != nil {
		return nil, fmt.Errorf("audit: %s: generate: %w", scaled.Name, err)
	}
	var encoded bytes.Buffer
	if err := trace.WriteAll(&encoded, events); err != nil {
		return nil, fmt.Errorf("audit: %s: encode: %w", scaled.Name, err)
	}

	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		report.Collectors = append(report.Collectors, fast[i].Collector)

		// Reference path: solo run, naive tail-scan boundary queries,
		// the tape held uncompacted, its own telemetry stream. The fast
		// path compacts, so every audit is also a compacted-vs-
		// uncompacted differential: epoch compaction must be invisible
		// bit for bit or this diff catches it.
		refTel := &bytes.Buffer{}
		refCfg := cfg
		refCfg.ReferenceScan = true
		refCfg.UncompactedTape = true
		refCfg.Probe = sim.NewTelemetryWriter(refTel)
		ref, err := sim.Run(events, refCfg)
		if err != nil {
			return nil, fmt.Errorf("audit: %s: reference run: %w", cfg.Label, err)
		}
		report.Runs++
		for _, d := range DiffResults(fast[i], ref) {
			report.Diffs = append(report.Diffs, cfg.Label+": fast vs reference: "+d)
		}
		for _, d := range DiffTelemetry(telemetryLines(fastTel[i]), telemetryLines(refTel)) {
			report.Diffs = append(report.Diffs, cfg.Label+": fast vs reference: "+d)
		}

		// Metamorphic path: the same run through the codec in awkward
		// chunks, with no probe attached — two relations at once
		// (re-chunking invariance and probe-attachment invariance).
		for _, chunk := range opts.ChunkSizes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			streamCfg := cfg
			streamCfg.Probe = nil
			rd := trace.NewReader(&chunkedReader{r: bytes.NewReader(encoded.Bytes()), n: chunk})
			streamed, err := sim.RunReader(rd, streamCfg)
			if err != nil {
				return nil, fmt.Errorf("audit: %s: streamed run (chunk %d): %w", cfg.Label, chunk, err)
			}
			report.Runs++
			for _, d := range DiffResults(fast[i], streamed) {
				report.Diffs = append(report.Diffs,
					fmt.Sprintf("%s: fast vs streamed (chunk %d, no probe): %s", cfg.Label, chunk, d))
			}
		}

		// Post-hoc history checks on the fast result.
		report.Violations = append(report.Violations, CheckHistory(cfg.Label, &fast[i].History)...)
		if stockBoundedPolicy(fast[i].Collector) {
			report.Violations = append(report.Violations, CheckBoundaryDiscipline(cfg.Label, &fast[i].History)...)
		}
	}
	return report, nil
}

// chunkedReader caps every Read at n bytes, forcing the trace decoder
// to see buffer boundaries in the middle of varints and event records.
type chunkedReader struct {
	r io.Reader
	n int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if c.n > 0 && len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// telemetryLines splits a captured JSON-lines stream for DiffTelemetry.
func telemetryLines(b *bytes.Buffer) []string {
	s := strings.TrimSuffix(b.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
