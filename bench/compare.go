package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/dtbgc/dtbgc/internal/stats"
)

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// ReadSpec parses BENCHMARK.json, refusing keys the schema does not
// define.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOutput is one saved run: its header and result lines.
type runOutput struct {
	header Header
	result Result
}

// readRunOutput parses the standard output of one run: the header line
// and, last, the result line.
func readRunOutput(path string) (*runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //dtbvet:ignore errsink -- read-only file; a read failure surfaces from the scanner
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: want a header line and a result line", path)
	}
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &out.header); err != nil {
		return nil, fmt.Errorf("%s: header line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	if out.header.Workload == "" {
		return nil, fmt.Errorf("%s: header names no workload", path)
	}
	return &out, nil
}

// Verdicts of the compare tool.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// verdict judges change runs b against parent runs a, paired by index.
//
// better: b wins at least nine in ten pairs and the medians differ by
// more than the parent's interquartile range. For a metric with a
// bound: unresolved when the parent's own spread is wider than the
// bound (unless every b beats every a), worse when b's median is worse
// than a's by more than bound × |a's median|, same otherwise. Without a
// bound, worse mirrors better.
func verdict(a, b []float64, higherBetter bool, bound float64, hasBound bool) string {
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	medA, medB := stats.Median(a), stats.Median(b)
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	gain := sign * (medB - medA)
	pairs := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && gain > iqr {
		return Better
	}
	if !hasBound {
		if pairs > 0 && 10*losses >= 9*pairs && -gain > iqr {
			return Worse
		}
		return Same
	}
	scale := math.Abs(medA)
	if iqr > bound*scale && !allBetter(a, b, sign) {
		return Unresolved
	}
	if -gain > bound*scale {
		return Worse
	}
	return Same
}

func allBetter(a, b []float64, sign float64) bool {
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for _, v := range b {
		worstB = math.Min(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Max(bestA, sign*v)
	}
	return worstB > bestA
}

// Compare reads saved run outputs of a parent (a) and a change (b) and
// writes one row per workload and metric present on both sides: each
// side's run count, median and quartiles, the parent's spread (IQR ÷
// |median|) and the verdict. It returns the number of worse rows.
func Compare(w io.Writer, spec *Spec, a, b []string) (int, error) {
	sideA, err := collect(a)
	if err != nil {
		return 0, err
	}
	sideB, err := collect(b)
	if err != nil {
		return 0, err
	}
	type metric struct {
		name, better string
		bound        float64
		hasBound     bool
	}
	var metrics []metric
	for _, m := range spec.EndToEnd {
		metrics = append(metrics, metric{m.Name, m.Better, m.Bound, true})
	}
	for _, m := range spec.PerLayer {
		metrics = append(metrics, metric{m.Name, m.Better, 0, false})
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tparent median\tparent q1..q3\tparent spread\tn\tchange median\tchange q1..q3\tverdict")
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range metrics {
			va, vb := sideA[wl.Name][m.name], sideB[wl.Name][m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, m.better == "higher", m.bound, m.hasBound)
			if v == Worse {
				worse++
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			medA := stats.Median(va)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g..%.6g\t%.2f%%\t%d\t%.6g\t%.6g..%.6g\t%s\n",
				wl.Name, m.name, len(va), medA, qa1, qa3, 100*(qa3-qa1)/math.Abs(medA),
				len(vb), stats.Median(vb), qb1, qb3, v)
		}
	}
	return worse, tw.Flush()
}

// collect groups the metric values of saved runs by workload and
// metric, in file order.
func collect(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		ro, err := readRunOutput(p)
		if err != nil {
			return nil, err
		}
		wl := ro.header.Workload
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if m, ok := ro.result.Metrics[d.Name]; ok {
				out[wl][d.Name] = append(out[wl][d.Name], m.Value)
			}
		}
	}
	return out, nil
}
