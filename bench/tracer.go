package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/dtbgc/dtbgc/internal/cliio"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// span is one timed interval of a traced run. Spans nest through
// Parent; every span carries the ID of the op it belongs to. Events is
// the work the span covered (trace events, or calls for the per-batch
// sweep and boundary sums); Allocs and Bytes are heap allocations
// inside it, recorded only where the run reads allocation counters.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"` // 0 for an op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int64  `json:"events"`
	Allocs int64  `json:"allocs"`
	Bytes  int64  `json:"bytes"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spans...)
}

func (t *tracer) newSpan(name string, op, parent int64) span {
	layer, _, _ := strings.Cut(name, ".")
	s := span{ID: t.next.Add(1), Name: name, Layer: layer, Op: op, Parent: parent}
	if op == 0 {
		s.Op = s.ID
	}
	return s
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return cliio.WriteTo(path, nil, nil, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(t.spans)
	})
}

// opSpan is one traced op in progress.
type opSpan struct {
	t      *tracer
	s      span
	events atomic.Int64
}

func (t *tracer) beginOp(name string) *opSpan {
	o := &opSpan{t: t, s: t.newSpan(name, 0, 0)}
	o.s.Start = nanotime()
	return o
}

func (o *opSpan) end() {
	o.s.End = nanotime()
	o.s.Events = o.events.Load()
	o.t.add(o.s)
}

// allocCounters reads the runtime's cumulative heap allocation
// counters. They are process-wide and advance a span of objects at a
// time, so they are read only around single-goroutine work and only
// summed over whole ops.
type allocCounters [3]metrics.Sample

func newAllocCounters() *allocCounters {
	return &allocCounters{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
}

func (a *allocCounters) read() (objects, bytes int64) {
	metrics.Read(a[:])
	return int64(a[0].Value.Uint64() + a[1].Value.Uint64()), int64(a[2].Value.Uint64())
}

// cpuReading is the runtime's cumulative CPU-time estimate at a point
// in the run.
type cpuReading struct{ gc, total float64 }

func readCPU() cpuReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuReading{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcShare is the fraction of CPU time the garbage collector took since
// the reading. The runtime updates these estimates at GC cycles, so a
// span too short to contain one reports 0.
func (c cpuReading) gcShare() float64 {
	now := readCPU()
	if now.total <= c.total {
		return 0
	}
	return (now.gc - c.gc) / (now.total - c.total)
}

// jobTrace instruments one job of a traced op from outside: the
// source call, each decoder read, each batch the engine's emit
// callback receives, a standalone tape fed the same batches, and —
// through a probe and a policy wrapper on every config — the sweep and
// boundary calls. A job runs on one goroutine, so its counters need no
// locks.
type jobTrace struct {
	op      *opSpan
	allocs  *allocCounters
	resolve *sim.Fleet

	job, src, finish span
	spans            []span
	events           int
	decision         int64

	sweepNs, sweepCalls       int64
	boundaryNs, boundaryCalls int64
}

// job starts tracing one job of the op. allocs selects whether spans
// record allocation counts (only meaningful when nothing else in the
// process allocates concurrently).
func (o *opSpan) job(allocs bool) (*jobTrace, error) {
	resolve, err := sim.NewFleet([]sim.Config{{Mode: sim.ModeNoGC}})
	if err != nil {
		return nil, err
	}
	jt := &jobTrace{op: o, resolve: resolve}
	if allocs {
		jt.allocs = newAllocCounters()
	}
	jt.job = jt.begin("engine.job", o.s.ID)
	return jt, nil
}

func (jt *jobTrace) begin(name string, parent int64) span {
	s := jt.op.t.newSpan(name, jt.op.s.ID, parent)
	if jt.allocs != nil {
		s.Allocs, s.Bytes = jt.allocs.read()
	}
	s.Start = nanotime()
	return s
}

func (jt *jobTrace) end(s span, events int) span {
	s.End = nanotime()
	if jt.allocs != nil {
		a, b := jt.allocs.read()
		s.Allocs, s.Bytes = a-s.Allocs, b-s.Bytes
	}
	s.Events = int64(events)
	jt.spans = append(jt.spans, s)
	return s
}

// sum records time accumulated inside a batch (sweeps or boundary
// queries) as a child span of it. Only the duration is measured; the
// span is placed at the batch's start.
func (jt *jobTrace) sum(name string, parent span, ns, calls int64) {
	if calls == 0 {
		return
	}
	s := jt.op.t.newSpan(name, jt.op.s.ID, parent.ID)
	s.Start, s.End, s.Events = parent.Start, parent.Start+ns, calls
	jt.spans = append(jt.spans, s)
}

// source returns the job's batch source, instrumented. The source span
// covers the whole call. A generated trace streams through
// engine.BatchingSource, and the span is named workload.generate: its
// self time (minus the batch and resolve children) is the generator's
// work plus the batching buffer's appends, which cannot be told apart
// from outside. A decoded trace is read in engine.ReaderBatchSource's
// loop with every Reader.ReadBatch call timed as a trace.decode child;
// the span, named engine.source, then keeps only the loop's own time,
// which no layer claims.
func (jt *jobTrace) source(j replayJob) engine.BatchSource {
	inner, name := j.batches(), "workload.generate"
	if j.encoded != nil {
		inner, name = jt.decoder(trace.NewReader(bytes.NewReader(j.encoded))), "engine.source"
	}
	return func(emit func([]trace.Event) error) error {
		jt.src = jt.begin(name, jt.job.ID)
		err := inner(func(batch []trace.Event) error {
			rs := jt.begin("sim.resolve", jt.src.ID)
			if err := jt.resolve.FeedBatch(batch); err != nil {
				return fmt.Errorf("standalone resolve: %w", err)
			}
			jt.end(rs, len(batch))
			sw, swc, bd, bdc := jt.sweepNs, jt.sweepCalls, jt.boundaryNs, jt.boundaryCalls
			bs := jt.begin("engine.batch", jt.src.ID)
			err := emit(batch)
			bs = jt.end(bs, len(batch))
			jt.sum("sim.sweep", bs, jt.sweepNs-sw, jt.sweepCalls-swc)
			jt.sum("core.boundary", bs, jt.boundaryNs-bd, jt.boundaryCalls-bdc)
			jt.events += len(batch)
			return err
		})
		jt.end(jt.src, jt.events)
		jt.op.events.Add(int64(jt.events))
		jt.finish = jt.begin("sim.finish", jt.job.ID)
		return err
	}
}

// readBatchEvents is the batch engine.ReaderBatchSource decodes into.
const readBatchEvents = 4096

// decoder is engine.ReaderBatchSource with every Reader.ReadBatch call
// timed as a trace.decode span.
func (jt *jobTrace) decoder(rd *trace.Reader) engine.BatchSource {
	return func(emit func([]trace.Event) error) error {
		buf := make([]trace.Event, readBatchEvents)
		for {
			ds := jt.begin("trace.decode", jt.src.ID)
			n, err := rd.ReadBatch(buf)
			jt.end(ds, n)
			if n > 0 {
				if eerr := emit(buf[:n]); eerr != nil {
					return eerr
				}
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
}

// configs attaches the job's probe to every config and wraps every
// policy in a timedPolicy. Only the stock pure policies are used here:
// the wrapper hides an adaptive policy's instance interface.
func (jt *jobTrace) configs(cfgs []sim.Config) []sim.Config {
	out := make([]sim.Config, len(cfgs))
	for i, c := range cfgs {
		c.Probe = jt
		if c.Mode == sim.ModePolicy {
			c.Policy = timedPolicy{Policy: c.Policy, jt: jt}
		}
		out[i] = c
	}
	return out
}

// done closes the job's spans once the replay has returned.
func (jt *jobTrace) done() {
	if jt.finish.ID != 0 {
		jt.end(jt.finish, 0)
	}
	jt.end(jt.job, jt.events)
	jt.op.t.add(jt.spans...)
}

// The sim.Probe methods time each sweep: Decision fires after the
// boundary is chosen and Scavenge after the collection is recorded.
// Runners of a fleet apply events one after another, so one timestamp
// serves the whole fleet.

func (jt *jobTrace) RunStart(sim.RunStart)   {}
func (jt *jobTrace) Progress(sim.Progress)   {}
func (jt *jobTrace) RunFinish(sim.RunFinish) {}
func (jt *jobTrace) Decision(sim.Decision)   { jt.decision = nanotime() }
func (jt *jobTrace) Scavenge(sim.ScavengeEvent) {
	jt.sweepNs += nanotime() - jt.decision
	jt.sweepCalls++
}

func (jt *jobTrace) addBoundary(ns int64) {
	jt.boundaryNs += ns
	jt.boundaryCalls++
}

// timedPolicy times a stock pure policy's Boundary calls. Name and
// Boundary delegate, so every result is the wrapped policy's; the time
// it records goes to the job's counters and never back into a decision.
type timedPolicy struct {
	core.Policy
	jt *jobTrace
}

func (p timedPolicy) Boundary(now core.Time, hist *core.History, heap core.Heap) core.Time {
	t0 := nanotime()
	tb := p.Policy.Boundary(now, hist, heap)
	p.jt.addBoundary(nanotime() - t0)
	return tb
}

// layerSum totals spans of one name.
type layerSum struct{ ns, allocs, bytes, events int64 }

func (a *layerSum) add(s span) {
	a.ns += s.dur()
	a.allocs += s.Allocs
	a.bytes += s.Bytes
	a.events += s.Events
}

// opTotals gathers the spans of every op named opName: the op spans,
// their job spans, and per-name totals in which a workload.generate
// span counts only its self time.
type opTotals struct {
	ops, jobs []span
	by        map[string]*layerSum
}

func (t *tracer) totals(opName string) opTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := map[int64]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == opName {
			ops[s.ID] = true
		}
	}
	children := map[int64]*layerSum{}
	for _, s := range t.spans {
		if ops[s.Op] && s.Parent != 0 {
			if children[s.Parent] == nil {
				children[s.Parent] = &layerSum{}
			}
			children[s.Parent].add(s)
		}
	}
	tot := opTotals{by: map[string]*layerSum{}}
	for _, s := range t.spans {
		switch {
		case !ops[s.Op]:
		case s.Parent == 0:
			tot.ops = append(tot.ops, s)
		case s.Name == "engine.job":
			tot.jobs = append(tot.jobs, s)
		default:
			if tot.by[s.Name] == nil {
				tot.by[s.Name] = &layerSum{}
			}
			tot.by[s.Name].add(s)
			if c := children[s.ID]; c != nil && (s.Name == "workload.generate" || s.Name == "trace.decode") {
				tot.by[s.Name].ns -= c.ns
				tot.by[s.Name].allocs -= c.allocs
				tot.by[s.Name].bytes -= c.bytes
			}
		}
	}
	return tot
}

func (o opTotals) get(name string) layerSum {
	if s := o.by[name]; s != nil {
		return *s
	}
	return layerSum{}
}

// replayLedger sets the per-layer metrics of a replay workload from
// the spans of its traced ops (named "op") and, for allocation counts,
// the ops named allocOp. collectors is the fleet size of every job,
// workers the pool size of a multi-job op, and untracedNs the untraced
// op times of the same run, for the tracing overhead.
func (r *run) replayLedger(collectors, workers int, allocOp string, untracedNs []float64) {
	tm := r.tracer.totals("op")
	al := r.tracer.totals(allocOp)
	nOps := len(tm.ops)
	if nOps == 0 {
		return
	}
	gen, decode, batch, resolve := tm.get("workload.generate"), tm.get("trace.decode"), tm.get("engine.batch"), tm.get("sim.resolve")
	sweep, boundary, finish := tm.get("sim.sweep"), tm.get("core.boundary"), tm.get("sim.finish")
	ev := float64(batch.events)
	if gen.events > 0 {
		r.set("workload.generate.ns_per_event", float64(gen.ns)/ev, nOps)
	}
	if decode.events > 0 {
		r.set("trace.decode.ns_per_event", float64(decode.ns)/ev, nOps)
	}
	r.set("engine.batch.ns_per_event", float64(batch.ns)/ev, nOps)
	r.set("sim.resolve.ns_per_event", float64(resolve.ns)/ev, nOps)
	apply := batch.ns - resolve.ns - sweep.ns - boundary.ns
	r.set("sim.apply.ns_per_event_collector", float64(apply)/(ev*float64(collectors)), nOps)
	if sweep.events > 0 {
		r.set("sim.sweep.ns_per_call", float64(sweep.ns)/float64(sweep.events), int(sweep.events))
		r.set("sim.sweep.calls", float64(sweep.events)/float64(nOps), nOps)
	}
	if boundary.events > 0 {
		r.set("core.boundary.ns_per_call", float64(boundary.ns)/float64(boundary.events), int(boundary.events))
	}
	r.set("sim.finish.ms", float64(finish.ns)/float64(nOps)/1e6, nOps)

	agen, adecode, abatch := al.get("workload.generate"), al.get("trace.decode"), al.get("engine.batch")
	aev := float64(abatch.events)
	if agen.events > 0 {
		r.set("workload.generate.allocs_per_event", float64(agen.allocs)/aev, len(al.ops))
		r.set("workload.generate.bytes_per_event", float64(agen.bytes)/aev, len(al.ops))
	}
	if adecode.events > 0 {
		r.set("trace.decode.allocs_per_event", float64(adecode.allocs)/aev, len(al.ops))
	}
	r.set("engine.batch.allocs_per_event", float64(abatch.allocs)/aev, len(al.ops))

	var jobNs int64
	waits := map[int64]float64{}
	busy := map[int64]float64{}
	opStart := map[int64]int64{}
	for _, o := range tm.ops {
		opStart[o.ID] = o.Start
	}
	for _, j := range tm.jobs {
		jobNs += j.dur()
		waits[j.Op] += float64(j.Start-opStart[j.Op]) / 1e9
		busy[j.Op] += float64(j.dur())
	}
	var opNs, waitS, busyRatio []float64
	for _, o := range tm.ops {
		opNs = append(opNs, float64(o.dur()))
		waitS = append(waitS, waits[o.ID])
		busyRatio = append(busyRatio, busy[o.ID]/float64(int64(workers)*o.dur()))
	}
	if len(tm.jobs) > nOps {
		r.set("engine.pool.wait_s", stats.Median(waitS), nOps)
		r.set("engine.pool.busy_ratio", stats.Median(busyRatio), nOps)
	}
	attributed := gen.ns + decode.ns + batch.ns + resolve.ns + finish.ns
	r.set("ledger.unattributed_ratio", 1-float64(attributed)/float64(jobNs), nOps)
	r.set("ledger.trace_overhead_ratio", stats.Median(opNs)/stats.Median(untracedNs), nOps)
}
