package dtbgc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// CollectorOrder is the row order of the paper's Tables 2-4.
var CollectorOrder = []string{"Full", "Fixed1", "Fixed4", "DtbMem", "FeedMed", "DtbFM"}

// EvalOptions parameterizes a full paper evaluation.
type EvalOptions struct {
	// Scale multiplies every workload's length; 1.0 reproduces the
	// paper-size runs (tens of megabytes each), smaller values give
	// fast approximate runs. Zero means 1.0; a negative, NaN or
	// infinite scale is an error.
	Scale float64
	// TriggerBytes is the scavenge interval (paper: 1 MB). It is NOT
	// scaled automatically; scale it alongside Scale when you want the
	// same number of collections on a shorter run.
	TriggerBytes uint64
	// MemMaxBytes is DTBMEM's constraint (paper: 3000 KB).
	MemMaxBytes uint64
	// TraceMaxBytes is FEEDMED's and DTBFM's per-scavenge budget
	// (paper: 50 KB, i.e. 100 ms at 500 KB/s).
	TraceMaxBytes uint64
	// Profiles defaults to the six paper runs.
	Profiles []Workload
	// RecordCurves retains memory series for Figure 2.
	RecordCurves bool
	// CurvePoints caps retained curve lengths (0 = keep all).
	CurvePoints int
	// Probe, when non-nil, receives telemetry from every run of the
	// evaluation, each labelled "workload/collector". Workloads run
	// concurrently, so the Probe must be safe for concurrent use —
	// the stock sinks (NewTelemetryWriter, NewProgressReporter) are.
	Probe Probe
	// Workers bounds how many workloads replay concurrently; zero
	// means GOMAXPROCS. Each workload is one job — a single trace
	// pass fanned out to all collectors — so results never depend on
	// the worker count or scheduling. Jobs start longest first, in
	// decreasing order of scaled TotalBytes (ties in Profiles order),
	// so the longest trace does not start last and hold one worker
	// while the others idle; a shared Probe sees the runs start in that
	// order. Runs and the tables keep Profiles order.
	Workers int
}

func (o EvalOptions) withDefaults() EvalOptions {
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
	if o.Profiles == nil {
		o.Profiles = workload.PaperProfiles()
	}
	return o
}

// RunSet holds every collector's result on one workload.
type RunSet struct {
	Workload Workload
	// Results is keyed by collector name, including "NoGC" and "Live".
	Results map[string]*Result
}

// Evaluation is the complete reproduction of the paper's §6.
type Evaluation struct {
	Options EvalOptions
	Runs    []RunSet
}

// RunPaperEvaluation executes the full experiment matrix: each
// workload trace is generated once — streamed, never materialized —
// and fed in a single pass to all six collectors plus the NoGC and
// Live baselines (internal/engine). Workloads run concurrently on a
// bounded pool (each run is deterministic however it is scheduled, so
// the evaluation's results do not depend on scheduling). It is
// RunPaperEvaluationContext without cancellation.
func RunPaperEvaluation(opts EvalOptions) (*Evaluation, error) {
	return RunPaperEvaluationContext(context.Background(), opts)
}

// RunPaperEvaluationContext is RunPaperEvaluation under a context:
// cancelling ctx aborts every in-flight replay at its next event
// boundary and returns ctx's error. A workload's hard failure
// likewise cancels the remaining work (fail-fast), while the errors
// of every workload that did fail are joined — a scaled-down run that
// breaks two workloads says so in one pass.
func RunPaperEvaluationContext(ctx context.Context, opts EvalOptions) (*Evaluation, error) {
	// A non-nil empty profile list would "succeed" with zero runs —
	// every Table accessor would render headers over no data, which
	// reads like a passing evaluation. Refuse it up front; leave
	// Profiles nil to get the six paper runs.
	if opts.Profiles != nil && len(opts.Profiles) == 0 {
		return nil, errors.New("dtbgc: EvalOptions.Profiles is empty: an evaluation over zero workloads would masquerade as success (leave it nil for the paper profiles)")
	}
	opts = opts.withDefaults()
	// A negative scale would panic in Workload.Scale, and a NaN or
	// infinite one passes it and scales TotalBytes past 2^63: the
	// evaluation would generate until ctx ended.
	if !(opts.Scale > 0) || math.IsInf(opts.Scale, 1) {
		return nil, fmt.Errorf("dtbgc: EvalOptions.Scale %v is not positive and finite", opts.Scale)
	}
	ev := &Evaluation{Options: opts, Runs: make([]RunSet, len(opts.Profiles))}
	scaled := make([]Workload, len(opts.Profiles))
	order := make([]int, len(opts.Profiles))
	for i, w := range opts.Profiles {
		scaled[i] = w.Scale(opts.Scale)
		order[i] = i
	}
	// Longest first: a job's cost follows its trace length, and on a
	// small pool the job that starts last sets the wall time. The key
	// is an integer, so an invalid profile sorts like any other and
	// fails in its own job.
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(scaled[b].TotalBytes, scaled[a].TotalBytes)
	})
	jobs := make([]engine.Job, len(order))
	for k, i := range order {
		jobs[k] = func(ctx context.Context) error {
			rs, err := runWorkloadSet(ctx, scaled[i], opts)
			ev.Runs[i] = rs
			return err
		}
	}
	if err := engine.RunJobs(ctx, opts.Workers, jobs); err != nil {
		return nil, err
	}
	return ev, nil
}

// collectorMatrix is the paper's run set over one trace: the six
// Table-1 policies plus the NoGC and Live baselines, labelled
// "name/collector". The trigger applies to the policy runs only (the
// baselines never scavenge); curve recording and the probe apply to
// every run.
func collectorMatrix(name string, trigger, memMax, traceMax uint64, curves bool, curvePoints int, probe Probe) []SimOptions {
	policies := []Policy{
		FullPolicy(), FixedPolicy(1), FixedPolicy(4),
		MemoryPolicy(memMax),
		FeedMedPolicy(traceMax),
		DtbFMPolicy(traceMax),
	}
	sims := make([]SimOptions, 0, len(policies)+2)
	for _, p := range policies {
		sims = append(sims, SimOptions{Policy: p, TriggerBytes: trigger, Label: name + "/" + p.Name()})
	}
	sims = append(sims,
		SimOptions{NoGC: true, Label: name + "/NoGC"},
		SimOptions{LiveOracle: true, Label: name + "/Live"})
	for i := range sims {
		sims[i].RecordCurve = curves
		sims[i].CurvePoints = curvePoints
		sims[i].Probe = probe
	}
	return sims
}

// replayMatrix feeds one pass of the source to the whole matrix and
// keys the results by collector name.
func replayMatrix(ctx context.Context, src engine.BatchSource, sims []SimOptions) (map[string]*Result, error) {
	results, err := engine.ReplayBatches(ctx, src, configs(sims))
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*Result, len(results))
	for _, res := range results {
		byName[res.Collector] = res
	}
	return byName, nil
}

// runWorkloadSet replays one scaled workload's trace under the whole
// matrix, reading the generator in batches.
func runWorkloadSet(ctx context.Context, scaled Workload, opts EvalOptions) (RunSet, error) {
	sims := collectorMatrix(scaled.Name, opts.TriggerBytes, opts.MemMaxBytes,
		opts.TraceMaxBytes, opts.RecordCurves, opts.CurvePoints, opts.Probe)
	g, err := scaled.Generator()
	if err != nil {
		return RunSet{}, fmt.Errorf("dtbgc: %s: %w", scaled.Name, err)
	}
	results, err := replayMatrix(ctx, engine.ReaderBatchSource(g), sims)
	if err != nil {
		return RunSet{}, fmt.Errorf("dtbgc: %s: %w", scaled.Name, err)
	}
	return RunSet{Workload: scaled, Results: results}, nil
}

// Table is a rendered experiment table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func (ev *Evaluation) header() []string {
	h := []string{"Collector"}
	for _, rs := range ev.Runs {
		h = append(h, rs.Workload.Name)
	}
	return h
}

func kbStr(bytes float64) string { return fmt.Sprintf("%.0f", bytes/1024) }

// naCell is rendered where a collector's result is absent from a
// RunSet (a hand-assembled or partially failed evaluation): an "n/a"
// cell is honest where dereferencing a nil *Result would panic and a
// fabricated 0 would read as a measurement.
const naCell = "n/a"

// Table2 reproduces "Mean and Maximum Memory Allocated (Kilobytes)":
// one cell per collector×workload holding "mean/max".
func (ev *Evaluation) Table2() *Table {
	t := &Table{
		Title:  "Table 2: Mean and Maximum Memory Allocated (Kilobytes, mean/max)",
		Header: ev.header(),
	}
	for _, name := range append(append([]string{}, CollectorOrder...), "NoGC", "Live") {
		row := []string{name}
		for _, rs := range ev.Runs {
			r := rs.Results[name]
			if r == nil {
				row = append(row, naCell)
				continue
			}
			row = append(row, kbStr(r.MemMeanBytes)+"/"+kbStr(r.MemMaxBytes))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table3 reproduces "Median and 90th Percentile Pause Times
// (Milliseconds)" as "p50/p90" cells.
func (ev *Evaluation) Table3() *Table {
	t := &Table{
		Title:  "Table 3: Median and 90th Percentile Pause Times (Milliseconds, p50/p90)",
		Header: ev.header(),
	}
	for _, name := range CollectorOrder {
		row := []string{name}
		for _, rs := range ev.Runs {
			r := rs.Results[name]
			if r == nil {
				row = append(row, naCell)
				continue
			}
			row = append(row, fmt.Sprintf("%.0f/%.0f",
				r.MedianPauseSeconds()*1000, r.P90PauseSeconds()*1000))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table4 reproduces "Total Bytes Traced (Kilobytes) and Estimated CPU
// Overhead (%)" as "traced/overhead" cells.
func (ev *Evaluation) Table4() *Table {
	t := &Table{
		Title:  "Table 4: Total Bytes Traced (Kilobytes) and Estimated CPU Overhead (%)",
		Header: ev.header(),
	}
	for _, name := range CollectorOrder {
		row := []string{name}
		for _, rs := range ev.Runs {
			r := rs.Results[name]
			if r == nil {
				row = append(row, naCell)
				continue
			}
			row = append(row, fmt.Sprintf("%.0f/%.1f",
				float64(r.TracedTotalBytes)/1024, r.OverheadPct))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table5 reproduces "General information about the test programs":
// the workload descriptions, drawn from the profiles' metadata.
func (ev *Evaluation) Table5() *Table {
	t := &Table{
		Title:  "Table 5: General information about the test programs",
		Header: []string{"Program", "Description"},
	}
	for _, rs := range ev.Runs {
		t.Rows = append(t.Rows, []string{rs.Workload.Name, rs.Workload.Description})
	}
	return t
}

// Table6 reproduces "Allocation Behavior of Programs Measured" from
// the measured runs: execution time, total allocation, allocation
// rate, and number of collections (under the Full collector, as any
// policy collects on the same trigger).
func (ev *Evaluation) Table6() *Table {
	t := &Table{
		Title: "Table 6: Allocation Behavior of Programs Measured",
		Header: []string{"Program", "Lines", "Exec (sec)", "Alloc (MB)",
			"Rate (KB/s)", "Collections"},
	}
	for _, rs := range ev.Runs {
		r := rs.Results["Full"]
		if r == nil {
			t.Rows = append(t.Rows, []string{
				rs.Workload.Name,
				fmt.Sprintf("%d", rs.Workload.SourceLines),
				naCell, naCell, naCell, naCell,
			})
			continue
		}
		rate := 0.0
		if r.ExecSeconds > 0 {
			rate = float64(r.TotalAlloc) / 1024 / r.ExecSeconds
		}
		t.Rows = append(t.Rows, []string{
			rs.Workload.Name,
			fmt.Sprintf("%d", rs.Workload.SourceLines),
			fmt.Sprintf("%.0f", r.ExecSeconds),
			fmt.Sprintf("%.0f", float64(r.TotalAlloc)/(1024*1024)),
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%d", r.Collections),
		})
	}
	return t
}

// Figure2 returns the memory-over-allocation-time series of the given
// collector on the given workload, plus the live floor, as CSV with
// one row per sampled point: clockKB,collectorKB,liveKB. The
// evaluation must have been run with RecordCurves.
func (ev *Evaluation) Figure2(workloadName, collector string) (string, error) {
	mem, live, err := ev.Figure2Series(workloadName, collector)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("allocatedKB,memKB,liveKB\n")
	for _, p := range mem.Points {
		fmt.Fprintf(&b, "%.1f,%.1f,%.1f\n", p.T/1024, p.V/1024, live.At(p.T)/1024)
	}
	return b.String(), nil
}

// Figure2Ascii renders the Figure 2 curves — the collector's memory
// in use over the allocation clock above the live floor — as a text
// chart labelled in kilobytes.
func (ev *Evaluation) Figure2Ascii(workloadName, collector string, width, height int) (string, error) {
	mem, live, err := ev.Figure2Series(workloadName, collector)
	if err != nil {
		return "", err
	}
	memNamed := &stats.Series{Name: collector + " memory", Points: mem.Points}
	liveNamed := &stats.Series{Name: "live bytes", Points: live.Points}
	return stats.AsciiPlot([]*stats.Series{memNamed, liveNamed}, width, height, 1024), nil
}

// Figure2Series returns the raw series for programmatic use (the
// collector's memory curve and the live floor).
func (ev *Evaluation) Figure2Series(workloadName, collector string) (mem, live *stats.Series, err error) {
	for _, rs := range ev.Runs {
		if rs.Workload.Name != workloadName {
			continue
		}
		r, ok := rs.Results[collector]
		if !ok {
			return nil, nil, fmt.Errorf("dtbgc: no collector %q in evaluation", collector)
		}
		if r.Curve == nil {
			return nil, nil, fmt.Errorf("dtbgc: evaluation ran without RecordCurves")
		}
		liveRes := rs.Results["Live"]
		if liveRes == nil || liveRes.Curve == nil {
			return nil, nil, fmt.Errorf("dtbgc: no Live baseline curve for %q in evaluation", workloadName)
		}
		return r.Curve, liveRes.Curve, nil
	}
	return nil, nil, fmt.Errorf("dtbgc: no workload %q in evaluation", workloadName)
}
