package workload

import (
	"testing"

	"github.com/dtbgc/dtbgc/internal/trace"
)

// TestPaperTracesPinned pins every paper profile's generated trace at
// scale 0.01 by its content digest and event count. Between them the
// six cover each shape the generator emits: exponential and permanent
// classes, ESPRESSO's phase marks and phase-end deaths, and SIS's
// long-lived tail. Any change to the random draws, the float results
// behind sizes and lifetimes, or the order of equal-clock deaths moves
// a digest.
func TestPaperTracesPinned(t *testing.T) {
	want := map[string]struct {
		digest string
		events int
	}{
		"GHOST(1)":    {"4f9799ba18cf305e07e5e910f72e76510e272adc7b9a0f03326a6c806a99687e", 10412},
		"GHOST(2)":    {"ce7180f191558a0398962d7385916037fb6ba2098ea75f5e669c448516aec8e4", 19215},
		"ESPRESSO(1)": {"cc7eef72318bfea1722a4f8cb58ae4a8accacbfcc033f6ac88f545811f7cbedb", 4762},
		"ESPRESSO(2)": {"49e45d9af9a206f6aab075bfd64b52097468a5f4495307341e33cc55739938b8", 34028},
		"SIS":         {"b2cc0a8de2585c436dc6af974ab65f7fd692d1a56cfc655ae1e8cf47ebb3cbe9", 1975},
		"CFRAC":       {"b4b5822a9e37afbe614e16ca75c862174d21727daecfd14b1d7485f8f6ae04ec", 1056},
	}
	for _, p := range PaperProfiles() {
		events, err := p.Scale(0.01).Generate()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		d, err := trace.DigestEvents(events)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		w := want[p.Name]
		if d.String() != w.digest || len(events) != w.events {
			t.Errorf("%s: digest %s over %d events, want %s over %d", p.Name, d, len(events), w.digest, w.events)
		}
	}
}
