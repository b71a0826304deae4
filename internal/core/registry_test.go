package core

import (
	"strings"
	"testing"
)

func TestParsePolicyValid(t *testing.T) {
	cases := []struct {
		spec string
		want Policy
	}{
		{"full", Full{}},
		{"FULL", Full{}},
		{" full ", Full{}},
		{"fixed1", Fixed{K: 1}},
		{"fixed4", Fixed{K: 4}},
		{"fixed12", Fixed{K: 12}},
		{"feedmed:50k", FeedMed{TraceMax: 50 * 1024}},
		{"dtbfm:50k", DtbFM{TraceMax: 50 * 1024}},
		{"dtbmem:3000k", DtbMem{MemMax: 3000 * 1024}},
		{"dtbmem:2m", DtbMem{MemMax: 2 * 1024 * 1024}},
		{"dtbfm:12345", DtbFM{TraceMax: 12345}},
		{"bandit:eps=0.1", Bandit{Eps: 0.1}},
		{"bandit:eps=0.25,arms=12", Bandit{Eps: 0.25, Arms: 12}},
		{"bandit:ucb=1.5", Bandit{UCB: 1.5}},
		{"bandit:ucb=2,arms=4", Bandit{UCB: 2, Arms: 4}},
		{"grad", Gradient{}},
		{"grad:rate=0.1", Gradient{Rate: 0.1}},
		{"grad:rate=0.1,trace=50k", Gradient{Rate: 0.1, TraceMax: 50 * 1024}},
		{"GRAD:RATE=0.1,TRACE=64K", Gradient{Rate: 0.1, TraceMax: 64 * 1024}},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.spec)
		if err != nil {
			t.Errorf("ParsePolicy(%q) error: %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParsePolicy(%q) = %#v, want %#v", c.spec, got, c.want)
		}
	}
}

func TestParsePolicyInvalid(t *testing.T) {
	cases := []string{
		"", "bogus", "fixed", "fixed0", "fixedx", "fixed1:5",
		"full:1", "feedmed", "dtbfm", "dtbmem", "dtbfm:abc",
		"dtbmem:-5", "feedmed:1.5k",
		"bandit", "bandit:", "bandit:eps", "bandit:eps=2", "bandit:eps=-0.1",
		"bandit:ucb=0", "bandit:ucb=-1", "bandit:eps=0.1,ucb=1",
		"bandit:eps=NaN", "bandit:ucb=NaN", "bandit:ucb=Inf",
		"bandit:eps=0.1,arms=1", "bandit:eps=0.1,arms=x", "bandit:k=3",
		"grad:rate=0", "grad:rate=-1", "grad:rate", "grad:rate=NaN", "grad:trace=0",
		"grad:trace=abc", "grad:bogus=1",
	}
	for _, spec := range cases {
		if _, err := ParsePolicy(spec); err == nil {
			t.Errorf("ParsePolicy(%q) accepted invalid spec", spec)
		}
	}
}

func TestParsePolicyErrorMentionsKnown(t *testing.T) {
	_, err := ParsePolicy("nosuch")
	if err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("error should list known policies, got %v", err)
	}
}

// TestParsePolicyErrorsAreDescriptive pins the wording of each failure
// class: a command-line typo must produce an actionable error, never a
// panic or a bare "invalid".
func TestParsePolicyErrorsAreDescriptive(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"dtbfm:", "bad byte count"},
		{"dtbmem:12q", "bad byte count"},
		{"feedmed:k", "bad byte count"},
		{"dtbmem:-5", "bad byte count"},
		{"fixed0", "K >= 1"},
		{"fixed", "K >= 1"},
		{"fixed-3", "K >= 1"},
		{"full:1", "takes no argument"},
		{"fixed4:9", "takes no argument"},
		{"dtbfm", "requires an argument"},
		{"gen0", "unknown policy"},
		{"", "unknown policy"},
		{"bandit", "requires a selector"},
		{"bandit:eps=2", "probability in [0,1]"},
		{"bandit:ucb=0", "positive coefficient"},
		{"bandit:eps=0.1,ucb=1", "exactly one of eps= or ucb="},
		{"bandit:arms=8", "exactly one of eps= or ucb="},
		{"bandit:eps=0.1,arms=1", "arms must be an integer >= 2"},
		{"bandit:k=3", "unknown bandit parameter"},
		{"bandit:eps", "want key=value"},
		{"grad:rate=0", "positive learning rate"},
		{"grad:trace=0", "positive byte budget"},
		{"grad:bogus=1", "unknown grad parameter"},
	}
	for _, c := range cases {
		_, err := parsePolicyNoPanic(t, c.spec)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted invalid spec", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePolicy(%q) error %q does not mention %q", c.spec, err, c.wantSub)
		}
	}
}

func parsePolicyNoPanic(t *testing.T, spec string) (p Policy, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("ParsePolicy(%q) panicked: %v", spec, r)
			err = nil
		}
	}()
	return ParsePolicy(spec)
}

func TestKnownPoliciesSorted(t *testing.T) {
	names := KnownPolicies()
	if len(names) < 5 {
		t.Fatalf("too few known policies: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("KnownPolicies not sorted: %v", names)
		}
	}
}

// TestKnownPoliciesRoundTrip guards the registry against drift: every
// spelling KnownPolicies advertises must parse via ParsePolicy once
// its placeholders are filled in. The substitution table below is the
// only sanctioned placeholder set — a new spelling with an unknown
// placeholder (or a spelling this table has never heard of) fails the
// test until both sides are updated together.
func TestKnownPoliciesRoundTrip(t *testing.T) {
	fill := strings.NewReplacer(
		"<bytes>", "50k",
		"<p>", "0.1",
		"<c>", "1.5",
		"<k>", "8",
		"<r>", "0.05",
	)
	for _, spelling := range KnownPolicies() {
		// Expand the optional [..] groups both ways: the bare form and
		// the fully parameterized one must each parse.
		for _, spec := range expandOptional(spelling) {
			concrete := fill.Replace(spec)
			if strings.ContainsAny(concrete, "<>[]") {
				t.Errorf("KnownPolicies spelling %q has a placeholder this test does not know how to fill (got %q): extend the substitution table", spelling, concrete)
				continue
			}
			p, err := ParsePolicy(concrete)
			if err != nil {
				t.Errorf("KnownPolicies spelling %q: ParsePolicy(%q) failed: %v", spelling, concrete, err)
				continue
			}
			if p.Name() == "" {
				t.Errorf("ParsePolicy(%q) produced a policy with an empty name", concrete)
			}
		}
	}
}

// expandOptional returns the spelling with every [optional] group
// fully removed and fully included (first bracket depth only; nested
// groups expand recursively).
func expandOptional(s string) []string {
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return []string{s}
	}
	depth, close := 0, -1
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				close = i
			}
		}
		if close >= 0 {
			break
		}
	}
	if close < 0 {
		return []string{s} // unbalanced; the caller's placeholder check will flag it
	}
	var out []string
	for _, tail := range expandOptional(s[close+1:]) {
		out = append(out, s[:open]+tail)
		for _, inner := range expandOptional(s[open+1 : close]) {
			out = append(out, s[:open]+inner+tail)
		}
	}
	return out
}
