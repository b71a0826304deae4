package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	dtbgc "github.com/dtbgc/dtbgc"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

// replayJob is one trace replayed once to a fleet of collectors.
type replayJob struct {
	// events streams the trace unbatched and never encoded: the input of
	// a generated job's ops and of the oracle's reference leg.
	events engine.Source
	// encoded, when set, is the trace's DTBT encoding, which every op
	// decodes instead of streaming events.
	encoded []byte
	cfgs    []sim.Config
}

// batches returns a fresh stream of the trace as an op replays it.
func (j replayJob) batches() engine.BatchSource {
	if j.encoded != nil {
		return engine.ReaderBatchSource(trace.NewReader(bytes.NewReader(j.encoded)))
	}
	return engine.BatchingSource(j.events)
}

// replayCase is a replay workload's inputs after set-up.
type replayCase struct {
	jobs    []replayJob
	workers int
	// frontDoor, when set, is the call a user makes for this work; timed
	// ops of an untraced run use it instead of the job path, and the
	// first of them proves the two agree.
	frontDoor func(ctx context.Context) ([]*sim.Result, error)
	// oracleSample is how many configs of each job the reference leg
	// replays per run, chosen by the seed.
	oracleSample int
}

// jobHook instruments one job of an op: it returns the job's source
// and configs, and done runs once the job's replay returns.
type jobHook func(j replayJob) (_ engine.BatchSource, _ []sim.Config, done func(), _ error)

// run replays every job once on a pool of workers and returns the
// results in job order, each job's in config order.
func (rc *replayCase) run(ctx context.Context, workers int, hook jobHook) ([]*sim.Result, error) {
	out := make([][]*sim.Result, len(rc.jobs))
	jobs := make([]engine.Job, len(rc.jobs))
	for i, j := range rc.jobs {
		jobs[i] = func(ctx context.Context) error {
			src, cfgs := j.batches(), j.cfgs
			if hook != nil {
				var done func()
				var err error
				if src, cfgs, done, err = hook(j); err != nil {
					return err
				}
				defer done()
			}
			res, err := engine.ReplayBatches(ctx, src, cfgs)
			out[i] = res
			return err
		}
	}
	if err := engine.RunJobs(ctx, workers, jobs); err != nil {
		return nil, err
	}
	var flat []*sim.Result
	for _, res := range out {
		flat = append(flat, res...)
	}
	return flat, nil
}

// verifyOp is the untimed first op: it counts the events each op
// replays and reads the live heap at the end of every job's replay.
func (rc *replayCase) verifyOp(ctx context.Context) (_ []*sim.Result, events int64, heap float64, _ error) {
	var n atomic.Int64
	hp := &heapProbe{}
	res, err := rc.run(ctx, rc.workers, func(j replayJob) (engine.BatchSource, []sim.Config, func(), error) {
		cfgs := append([]sim.Config(nil), j.cfgs...)
		cfgs[0].Probe = hp
		return countingSource(j.batches(), func(k int) { n.Add(int64(k)) }), cfgs, func() {}, nil
	})
	return res, n.Load(), hp.peak, err
}

// traced is one traced op, named name in the spans.
func (rc *replayCase) traced(ctx context.Context, t *tracer, name string, workers int, allocs bool) ([]*sim.Result, error) {
	op := t.beginOp(name)
	defer op.end()
	return rc.run(ctx, workers, func(j replayJob) (engine.BatchSource, []sim.Config, func(), error) {
		jt, err := op.job(allocs)
		if err != nil {
			return nil, nil, nil, err
		}
		return jt.source(j), jt.configs(j.cfgs), jt.done, nil
	})
}

// oracleChecks picks the configs the reference leg replays this run.
func (rc *replayCase) oracleChecks(results []*sim.Result, rng *xrand.Rand) []oracleCheck {
	var checks []oracleCheck
	base := 0
	for _, j := range rc.jobs {
		for _, k := range rng.Perm(len(j.cfgs))[:min(rc.oracleSample, len(j.cfgs))] {
			checks = append(checks, oracleCheck{src: j.events, cfg: j.cfgs[k], fast: results[base+k]})
		}
		base += len(j.cfgs)
	}
	return checks
}

// heapProbe reads the live heap at a fleet's first RunFinish, while the
// fleet and its shared tape are still reachable, and keeps the largest
// reading. It is attached to the first config of every job.
type heapProbe struct {
	mu   sync.Mutex
	peak float64
}

func (p *heapProbe) RunStart(sim.RunStart)      {}
func (p *heapProbe) Decision(sim.Decision)      {}
func (p *heapProbe) Scavenge(sim.ScavengeEvent) {}
func (p *heapProbe) Progress(sim.Progress)      {}
func (p *heapProbe) RunFinish(sim.RunFinish) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peak = math.Max(p.peak, heapMB())
}

// runReplay is the run of every replay workload: set up, verify, then
// time ops until the deadline, alternating untraced and traced ops in
// a traced run and rebuilding the inputs between ops for setup_s.
func runReplay(ctx context.Context, r *run, build func() (*replayCase, error)) error {
	st := &setupTimer[*replayCase]{build: build}
	rc, err := st.once()
	if err != nil {
		return err
	}
	runtime.GC()
	first, events, heap, err := rc.verifyOp(ctx)
	r.attempted++
	if err != nil {
		return fmt.Errorf("verify op: %w", err)
	}
	r.digest = resultDigest(first)
	diffs, err := runOracle(ctx, rc.workers, rc.oracleChecks(first, r.rng))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for _, d := range diffs {
		r.problem("%s", d)
	}
	r.checkGolden()
	r.set("heap_mb", heap, 1)
	// The reference leg's uncompacted tapes grew the heap several-fold;
	// hand that memory back now rather than let the background
	// scavenger do it on the second CPU while ops are timed.
	debug.FreeOSMemory()

	allocOp := "op"
	if r.tracer != nil && rc.workers > 1 {
		// The allocation counters are process-wide, so a multi-worker
		// workload takes its allocation figures from one single-worker
		// pass.
		allocOp = "op.allocs"
		res, err := rc.traced(ctx, r.tracer, allocOp, 1, true)
		r.checkOp("allocation pass", res, err)
	}
	hs, err := r.startHostSpeed()
	if err != nil {
		return err
	}
	cpu := readCPU()
	deadline := nanotime() + int64(r.p.Seconds*1e9)
	var untraced, scaled, traced []float64
	var opSeconds float64
	for i := 0; ; i++ {
		tracedOp := r.tracer != nil && i%2 == 1
		t0 := nanotime()
		var res []*sim.Result
		switch {
		case tracedOp:
			res, err = rc.traced(ctx, r.tracer, "op", rc.workers, rc.workers == 1)
		case r.tracer != nil:
			// The tracing overhead compares like with like: the traced
			// op's job path, untraced.
			res, err = rc.run(ctx, rc.workers, nil)
		case rc.frontDoor != nil:
			res, err = rc.frontDoor(ctx)
		default:
			res, err = rc.run(ctx, rc.workers, nil)
		}
		dt := float64(nanotime() - t0)
		r.checkOp(fmt.Sprintf("op %d", i), res, err)
		hs.mark()
		if tracedOp {
			traced = append(traced, dt)
		} else {
			untraced = append(untraced, dt)
			scaled = append(scaled, hs.scaleLast(dt))
		}
		opSeconds += dt / 1e9
		if err := st.more(setupShare * opSeconds); err != nil {
			return err
		}
		if nanotime() >= deadline && len(untraced) > 0 && (r.tracer == nil || len(traced) > 0) {
			break
		}
	}
	if err := st.report(r, hs); err != nil {
		return err
	}
	r.setScaled("events_per_s", float64(events)/(stats.Median(scaled)/1e9), float64(events)/(stats.Median(untraced)/1e9), len(untraced))
	if r.tracer != nil {
		r.set("runtime.gc.cpu_share", cpu.gcShare(), 1)
		r.replayLedger(len(rc.jobs[0].cfgs), rc.workers, allocOp, untraced)
	}
	return nil
}

// checkOp counts one op and fails it on an error or a result digest
// other than the verify op's.
func (r *run) checkOp(what string, res []*sim.Result, err error) {
	r.attempted++
	if err != nil {
		r.failOp("%s: %v", what, err)
		return
	}
	if d := resultDigest(res); d != r.digest {
		r.failOp("%s: result digest %s differs from the verify op's %s", what, d, r.digest)
	}
}

// The paper's collector constraints (EvalOptions defaults).
const (
	paperTrigger  = 1 << 20
	paperMemMax   = 3000 << 10
	paperTraceMax = 50 << 10
)

// paperCollectors is the paper's run set over one trace as the
// evaluation harness builds it: the six Table 1 policies at the given
// trigger, then the NoGC and Live baselines, labelled "name/collector".
func paperCollectors(name string, trigger uint64) []sim.Config {
	policies := []core.Policy{
		core.Full{}, core.Fixed{K: 1}, core.Fixed{K: 4},
		core.DtbMem{MemMax: paperMemMax},
		core.FeedMed{TraceMax: paperTraceMax},
		core.DtbFM{TraceMax: paperTraceMax},
	}
	cfgs := make([]sim.Config, 0, len(policies)+2)
	for _, p := range policies {
		cfgs = append(cfgs, sim.Config{Mode: sim.ModePolicy, Policy: p, TriggerBytes: trigger, Label: name + "/" + p.Name()})
	}
	return append(cfgs,
		sim.Config{Mode: sim.ModeNoGC, Label: name + "/NoGC"},
		sim.Config{Mode: sim.ModeLive, Label: name + "/Live"})
}

// collectorName is the name a config's Result carries.
func collectorName(c sim.Config) string {
	switch c.Mode {
	case sim.ModeNoGC:
		return "NoGC"
	case sim.ModeLive:
		return "Live"
	default:
		return c.Policy.Name()
	}
}

// Input sizes. An op lasts 0.1-0.4 s on a 2-vCPU host, so a run times
// dozens of them, and the calibration kernel between them follows the
// host's speed closely enough to scale each one (see hostSpeed).
const (
	// paperScale shrinks the paper traces of paper-matrix; the
	// evaluation is otherwise the one that regenerates Tables 2-4.
	paperScale = 0.1
	// fanoutScale shrinks fanout64's GHOST(1) trace.
	fanoutScale = 0.1
)

// generatorJob streams a workload profile's trace from its generator.
func generatorJob(p workload.Profile, cfgs []sim.Config) replayJob {
	return replayJob{events: p.GenerateTo, cfgs: cfgs}
}

// seeded returns the profile with the run's seed added to its
// generator seed (seed 0 is the paper's trace), scaled.
func seeded(p workload.Profile, seed uint64, scale float64) (workload.Profile, error) {
	p.Seed += seed
	p = p.Scale(scale)
	return p, p.Validate()
}

func runPaperMatrix(ctx context.Context, r *run) error {
	return runReplay(ctx, r, func() (*replayCase, error) {
		scale := paperScale * r.p.inputScale()
		profiles := workload.PaperProfiles()
		rc := &replayCase{workers: 2, oracleSample: 8}
		for i := range profiles {
			p, err := seeded(profiles[i], r.p.Seed, scale)
			if err != nil {
				return nil, err
			}
			profiles[i].Seed = p.Seed // the front door scales them itself
			rc.jobs = append(rc.jobs, generatorJob(p, paperCollectors(p.Name, paperTrigger)))
		}
		rc.frontDoor = func(ctx context.Context) ([]*sim.Result, error) {
			ev, err := dtbgc.RunPaperEvaluationContext(ctx, dtbgc.EvalOptions{Scale: scale, Profiles: profiles, Workers: rc.workers})
			if err != nil {
				return nil, err
			}
			var out []*sim.Result
			for i, rs := range ev.Runs {
				for _, c := range rc.jobs[i].cfgs {
					res := rs.Results[collectorName(c)]
					if res == nil {
						return nil, fmt.Errorf("evaluation has no %s result for %s", collectorName(c), rs.Workload.Name)
					}
					out = append(out, res)
				}
			}
			return out, nil
		}
		return rc, nil
	})
}

func runFanout64(ctx context.Context, r *run) error {
	return runReplay(ctx, r, func() (*replayCase, error) {
		p, err := seeded(workload.Ghost1(), r.p.Seed, fanoutScale*r.p.inputScale())
		if err != nil {
			return nil, err
		}
		var cfgs []sim.Config
		for i := uint64(0); i < 8; i++ {
			cfgs = append(cfgs, paperCollectors(fmt.Sprintf("%s#%d", p.Name, i), paperTrigger+i*(32<<10))...)
		}
		return &replayCase{jobs: []replayJob{generatorJob(p, cfgs)}, workers: 1, oracleSample: 8}, nil
	})
}

// The churn trace: churnObjects objects with log-normal sizes around
// churnMeanSize bytes, each freed when the object churnWindow places
// later is born, so the live set stays at churnWindow objects however
// long the trace runs and epoch compaction retires the tape behind it.
const (
	churnObjects  = 200_000
	churnWindow   = 2048
	churnMeanSize = 256
	churnSeed     = 0xC4A2_2048
)

// churnTrace streams the seeded churn trace of n objects.
func churnTrace(seed uint64, n int) engine.Source {
	return func(emit func(trace.Event) error) error {
		rng := xrand.New(churnSeed + seed)
		const sigma = 0.8
		mu := math.Log(churnMeanSize) - sigma*sigma/2
		var instr uint64
		for i := 1; i <= n; i++ {
			size := uint64(math.Max(16, math.Min(8192, rng.LogNormal(mu, sigma))))
			instr += 10 * size
			if err := emit(trace.Alloc(trace.ObjectID(i), size, instr)); err != nil {
				return err
			}
			if i > churnWindow {
				if err := emit(trace.Free(trace.ObjectID(i-churnWindow), instr)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func runChurnDecode(ctx context.Context, r *run) error {
	return runReplay(ctx, r, func() (*replayCase, error) {
		src := churnTrace(r.p.Seed, int(churnObjects*r.p.inputScale()))
		var enc bytes.Buffer
		w := trace.NewWriter(&enc)
		if err := src(w.Write); err != nil {
			return nil, fmt.Errorf("encode churn trace: %w", err)
		}
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("encode churn trace: %w", err)
		}
		const trigger = 64 << 10
		cfgs := []sim.Config{
			{Mode: sim.ModePolicy, Policy: core.Full{}, TriggerBytes: trigger, Label: "churn/Full"},
			{Mode: sim.ModePolicy, Policy: core.FeedMed{TraceMax: 1 << 20}, TriggerBytes: trigger, Label: "churn/FeedMed"},
			{Mode: sim.ModeNoGC, Label: "churn/NoGC"},
			{Mode: sim.ModeLive, Label: "churn/Live"},
		}
		job := replayJob{events: src, encoded: enc.Bytes(), cfgs: cfgs}
		return &replayCase{jobs: []replayJob{job}, workers: 1, oracleSample: 4}, nil
	})
}
