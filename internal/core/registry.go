package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsePolicy builds a Policy from a command-line specification.
// Accepted forms (case-insensitive):
//
//	full
//	fixed1, fixed4, fixedK (any K >= 1)
//	feedmed:<traceMaxBytes>
//	dtbfm:<traceMaxBytes>
//	dtbmem:<memMaxBytes>
//	bandit:eps=<p>[,arms=<k>]     adaptive ε-greedy bandit
//	bandit:ucb=<c>[,arms=<k>]     adaptive UCB1 bandit
//	grad[:rate=<r>[,trace=<bytes>]]  adaptive online gradient controller
//
// The byte arguments accept an optional k/m suffix (binary units), so
// "dtbfm:50k" is the paper's 50-kilobyte trace budget. The bandit and
// grad forms build AdaptivePolicy values: parameterized families whose
// per-run state the simulator instantiates from a seed.
func ParsePolicy(spec string) (Policy, error) {
	name, arg, hasArg := strings.Cut(strings.ToLower(strings.TrimSpace(spec)), ":")
	switch {
	case name == "full":
		if hasArg {
			return nil, fmt.Errorf("core: policy %q takes no argument", name)
		}
		return Full{}, nil
	case strings.HasPrefix(name, "fixed"):
		if hasArg {
			return nil, fmt.Errorf("core: policy %q takes no argument", name)
		}
		k, err := strconv.Atoi(strings.TrimPrefix(name, "fixed"))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("core: bad fixed policy %q: want fixedK with K >= 1", spec)
		}
		return Fixed{K: k}, nil
	case name == "feedmed", name == "dtbfm", name == "dtbmem":
		if !hasArg {
			return nil, fmt.Errorf("core: policy %q requires an argument, e.g. %q", name, name+":50k")
		}
		n, err := parseBytes(arg)
		if err != nil {
			return nil, fmt.Errorf("core: policy %q: %v", spec, err)
		}
		switch name {
		case "feedmed":
			return FeedMed{TraceMax: n}, nil
		case "dtbfm":
			return DtbFM{TraceMax: n}, nil
		default:
			return DtbMem{MemMax: n}, nil
		}
	case name == "bandit":
		if !hasArg {
			return nil, fmt.Errorf("core: policy %q requires a selector, e.g. %q or %q", name, "bandit:eps=0.1", "bandit:ucb=1.5")
		}
		return parseBandit(spec, arg)
	case name == "grad":
		return parseGradient(spec, arg, hasArg)
	default:
		return nil, fmt.Errorf("core: unknown policy %q (known: %s)", spec, strings.Join(KnownPolicies(), ", "))
	}
}

// PolicySpec prints p in the one spelling of it that ParsePolicy
// reads: lower case, byte counts in plain bytes, every bandit and grad
// parameter written out with its default filled in, and floats in %g,
// as Name prints them. Parsing the spec gives a policy with the same
// Name and the same behaviour, so every spelling of one policy prints
// the same spec. It fails for policies ParsePolicy cannot build, such
// as the ablations.
func PolicySpec(p Policy) (string, error) {
	switch p := p.(type) {
	case Full:
		return "full", nil
	case Fixed:
		if p.K >= 1 {
			return "fixed" + strconv.Itoa(p.K), nil
		}
	case FeedMed:
		return "feedmed:" + strconv.FormatUint(p.TraceMax, 10), nil
	case DtbFM:
		return "dtbfm:" + strconv.FormatUint(p.TraceMax, 10), nil
	case DtbMem:
		return "dtbmem:" + strconv.FormatUint(p.MemMax, 10), nil
	case Bandit:
		// The selector is the one the bandit runs with (see Name).
		switch {
		case p.UCB > 0 && !math.IsInf(p.UCB, 1):
			return fmt.Sprintf("bandit:ucb=%g,arms=%d", p.UCB, p.arms()), nil
		case !(p.UCB > 0) && p.Eps >= 0 && p.Eps <= 1:
			return fmt.Sprintf("bandit:eps=%g,arms=%d", p.Eps, p.arms()), nil
		}
	case Gradient:
		if r := p.rate(); r <= 10 {
			return fmt.Sprintf("grad:rate=%g,trace=%d", r, p.traceMax()), nil
		}
	}
	return "", fmt.Errorf("core: policy %T has no ParsePolicy spec", p)
}

// maxBanditArms caps the arms a spec may ask for: each run holds 16
// bytes per arm, and specs arrive from clients.
const maxBanditArms = 1024

// parseBandit parses the comma-separated key=value list after
// "bandit:". Exactly one of eps/ucb selects the exploration strategy.
func parseBandit(spec, arg string) (Policy, error) {
	var b Bandit
	var hasEps, hasUCB bool
	for _, kv := range strings.Split(arg, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("core: policy %q: want key=value, got %q", spec, kv)
		}
		switch key {
		case "eps":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("core: policy %q: eps must be a probability in [0,1], got %q", spec, val)
			}
			b.Eps, hasEps = p, true
		case "ucb":
			c, err := strconv.ParseFloat(val, 64)
			if err != nil || !(c > 0) || math.IsInf(c, 1) {
				return nil, fmt.Errorf("core: policy %q: ucb must be a positive coefficient, got %q", spec, val)
			}
			b.UCB, hasUCB = c, true
		case "arms":
			k, err := strconv.Atoi(val)
			if err != nil || k < 2 || k > maxBanditArms {
				return nil, fmt.Errorf("core: policy %q: arms must be an integer >= 2 and <= %d, got %q", spec, maxBanditArms, val)
			}
			b.Arms = k
		default:
			return nil, fmt.Errorf("core: policy %q: unknown bandit parameter %q (want eps, ucb or arms)", spec, key)
		}
	}
	if hasEps == hasUCB {
		return nil, fmt.Errorf("core: policy %q: exactly one of eps= or ucb= selects the bandit strategy", spec)
	}
	return b, nil
}

// parseGradient parses the optional comma-separated key=value list
// after "grad:". Bare "grad" takes the defaults.
func parseGradient(spec, arg string, hasArg bool) (Policy, error) {
	var g Gradient
	if !hasArg {
		return g, nil
	}
	for _, kv := range strings.Split(arg, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("core: policy %q: want key=value, got %q", spec, kv)
		}
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || !(r > 0 && r <= 10) {
				return nil, fmt.Errorf("core: policy %q: rate must be a positive learning rate <= 10, got %q", spec, val)
			}
			g.Rate = r
		case "trace":
			n, err := parseBytes(val)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("core: policy %q: trace must be a positive byte budget, got %q", spec, val)
			}
			g.TraceMax = n
		default:
			return nil, fmt.Errorf("core: policy %q: unknown grad parameter %q (want rate or trace)", spec, key)
		}
	}
	return g, nil
}

// KnownPolicies lists the accepted ParsePolicy spellings for help text.
func KnownPolicies() []string {
	names := []string{
		"full", "fixed1", "fixed4",
		"feedmed:<bytes>", "dtbfm:<bytes>", "dtbmem:<bytes>",
		"bandit:eps=<p>[,arms=<k>]", "bandit:ucb=<c>[,arms=<k>]",
		"grad[:rate=<r>[,trace=<bytes>]]",
	}
	sort.Strings(names)
	return names
}

func parseBytes(s string) (uint64, error) {
	mult, digits := uint64(1), s
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, digits = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, digits = 1024*1024, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q", digits)
	}
	if n > math.MaxUint64/mult {
		return 0, fmt.Errorf("bad byte count %q: overflows 64 bits", s)
	}
	return n * mult, nil
}
