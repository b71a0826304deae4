package bench

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"github.com/dtbgc/dtbgc/internal/audit"
	"github.com/dtbgc/dtbgc/internal/engine"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/stats"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// resultDigest hashes every field of every result — floats by their
// IEEE-754 bits — and the full scavenge history, in order. Two ops
// agree exactly when their digests do.
func resultDigest(results []*sim.Result) string {
	h := sha256.New()
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	series := func(s *stats.Series) {
		if s == nil {
			u(math.MaxUint64)
			return
		}
		u(uint64(len(s.Points)))
		for _, p := range s.Points {
			f(p.T)
			f(p.V)
		}
	}
	for _, r := range results {
		b = append(b[:0], r.Collector...)
		b = append(b, 0)
		f(r.MemMeanBytes)
		f(r.MemMaxBytes)
		f(r.LiveMeanBytes)
		f(r.LiveMaxBytes)
		u(uint64(len(r.Pauses)))
		for _, p := range r.Pauses {
			f(p)
		}
		u(r.TracedTotalBytes)
		f(r.OverheadPct)
		u(uint64(r.Collections))
		u(r.TotalAlloc)
		f(r.ExecSeconds)
		series(r.Curve)
		series(r.LiveCurve)
		u(r.PageFaults)
		u(r.PageAccesses)
		u(uint64(len(r.History.Scavenges)))
		for _, s := range r.History.Scavenges {
			u(uint64(s.N))
			u(s.T.Bytes())
			u(s.TB.Bytes())
			u(s.MemBefore)
			u(s.Traced)
			u(s.Reclaimed)
			u(s.Surviving)
		}
		//dtbvet:ignore errsink -- hash.Hash.Write is documented to never return an error
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// soloReference runs one configuration the way the audit oracle's
// independent leg does: a solo runner with a private tape, fed event
// by event from the unbatched source, boundary queries through the
// reference tail scan and the tape never compacted.
func soloReference(src engine.Source, cfg sim.Config) (*sim.Result, error) {
	cfg.ReferenceScan = true
	cfg.UncompactedTape = true
	cfg.Probe = nil
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if err := src(r.Feed); err != nil {
		return nil, err
	}
	return r.Finish(), nil
}

// oracleCheck is one sampled configuration of a verified op: its
// fast-path result and how to replay it on the reference leg.
type oracleCheck struct {
	src  engine.Source
	cfg  sim.Config
	fast *sim.Result
}

// runOracle replays every check on the reference leg, workers at a
// time, and returns one line per difference.
func runOracle(ctx context.Context, workers int, checks []oracleCheck) ([]string, error) {
	diffs := make([][]string, len(checks))
	jobs := make([]engine.Job, len(checks))
	for i, c := range checks {
		jobs[i] = func(context.Context) error {
			ref, err := soloReference(c.src, c.cfg)
			if err != nil {
				return fmt.Errorf("reference run %s: %w", c.cfg.Label, err)
			}
			for _, d := range audit.DiffResults(c.fast, ref) {
				diffs[i] = append(diffs[i], c.cfg.Label+": fast vs reference: "+d)
			}
			return nil
		}
	}
	if err := engine.RunJobs(ctx, workers, jobs); err != nil {
		return nil, err
	}
	var out []string
	for _, d := range diffs {
		out = append(out, d...)
	}
	return out, nil
}

// countingSource passes a batch source through, reporting the size of
// every batch it delivers to add.
func countingSource(src engine.BatchSource, add func(int)) engine.BatchSource {
	return func(emit func([]trace.Event) error) error {
		return src(func(batch []trace.Event) error {
			add(len(batch))
			return emit(batch)
		})
	}
}

// goldenTable maps workload name → decimal seed → result digest.
type goldenTable map[string]map[string]string

func (g goldenTable) lookup(workload string, seed uint64) (string, bool) {
	d, ok := g[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// goldenSeeds are the seeds golden.json pins.
var goldenSeeds = []uint64{1, 2, 3}

//go:embed golden.json
var goldenJSON []byte

// committedGolden is golden.json as built into the binary. It catches a
// change that alters simulated results on the fast path and the
// oracle's reference leg alike, which the per-run oracle diff cannot.
var committedGolden = func() goldenTable {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: golden.json is not valid: %v", err))
	}
	return g
}()

// UpdateGolden reruns every workload at each golden seed as a full run
// of the given length, with the oracle check but no golden comparison,
// and writes the digests to path. It refuses to record a digest from a
// run that found a problem.
func UpdateGolden(ctx context.Context, path string, seconds float64) error {
	g := goldenTable{}
	for _, w := range Workloads {
		g[w.Name] = map[string]string{}
		for _, seed := range goldenSeeds {
			h, res, err := Run(ctx, Params{Workload: w.Name, Seed: seed, Seconds: seconds, golden: goldenTable{}})
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run is not correct: %v", w.Name, seed, h.Problems)
			}
			g[w.Name][strconv.FormatUint(seed, 10)] = h.Digest
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
