package sim_test

import (
	"testing"

	"github.com/dtbgc/dtbgc/internal/apps/cfrac"
	"github.com/dtbgc/dtbgc/internal/core"
	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
	"github.com/dtbgc/dtbgc/internal/workload"
)

// TestProducersNumberConsecutively pins the module's own trace
// producers to the tape index's arithmetic arm: the workload
// generator (every paper profile), trace.Builder (a churn trace) and
// mheap (a cfrac run) all number objects consecutively, so a
// compacting fleet replays each of them, retiring prefixes included,
// without ever building the id→ordinal map. A producer that stops
// doing so fails here instead of silently losing the hash-free
// resolve.
func TestProducersNumberConsecutively(t *testing.T) {
	type named struct {
		name   string
		events []trace.Event
	}
	traces := []named{{"churn", sim.CompactingChurnTrace(20000)}}
	for _, p := range workload.PaperProfiles() {
		events, err := p.Scale(0.01).Generate()
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, named{p.Name, events})
	}
	_, _, events, err := cfrac.Factor("1000036000099", cfrac.Config{}) // 1000003 × 1000033
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, named{"cfrac", events})

	for _, tr := range traces {
		fleet, err := sim.NewFleet([]sim.Config{
			{Policy: core.Full{}, TriggerBytes: 64 << 10},
			{Policy: core.DtbFM{TraceMax: 32 << 10}, TriggerBytes: 64 << 10},
			{Mode: sim.ModeLive},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetCompactionCadence(fleet, 256)
		if err := fleet.FeedBatch(tr.events); err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		fleet.Finish()
		// The paper traces' oldest objects live to the end, so only the
		// churn trace is sure to retire prefixes on the arithmetic arm.
		if st := fleet.TapeStats(); tr.name == "churn" && st.RetiredObjects == 0 {
			t.Errorf("%s: the fleet never retired a prefix: %+v", tr.name, st)
		}
		if sim.TapeIndexMapped(fleet) {
			t.Errorf("%s: objects are not numbered consecutively: the tape fell back to its id map", tr.name)
		}
	}
}
