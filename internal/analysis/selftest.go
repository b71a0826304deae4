package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
)

// SelfTest is the mutation check behind dtbvet -selftest: every
// analyzer must fire on its bad fixture (the committed mutant) and the
// whole suite must stay silent on the clean fixtures. An analyzer that
// cannot fire on its own mutant is dead weight — the gate would pass
// no matter what the tree does — so CI runs this before trusting a
// clean dtbvet exit.
func SelfTest(moduleDir string) error {
	loader, err := NewLoader(moduleDir)
	if err != nil {
		return err
	}
	src := filepath.Join(moduleDir, "internal", "analysis", "testdata", "src")
	var failures []string
	for _, fx := range selfTestFixtures() {
		pkg, err := loader.LoadDir(filepath.Join(src, filepath.FromSlash(fx.dir)), "fixture/"+fx.dir)
		if err != nil {
			return fmt.Errorf("selftest: loading fixture %s: %w", fx.dir, err)
		}
		diags := RunAnalyzers([]*Package{pkg}, All())
		if fx.trigger == "" {
			for _, d := range diags {
				failures = append(failures, fmt.Sprintf(
					"clean fixture %s produced %s: %s", fx.dir, d.Analyzer, d.Message))
			}
			continue
		}
		fired := false
		for _, d := range diags {
			if d.Analyzer == fx.trigger {
				fired = true
				break
			}
		}
		if !fired {
			failures = append(failures, fmt.Sprintf(
				"analyzer %s did not fire on its mutant fixture %s: the check is dead", fx.trigger, fx.dir))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selftest failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// selfTestFixture pairs a fixture package with the analyzer it exists
// to trigger ("" for the clean corpus).
type selfTestFixture struct {
	dir     string // under internal/analysis/testdata/src, slash-separated
	trigger string
}

func selfTestFixtures() []selfTestFixture {
	return []selfTestFixture{
		{"allocclockbad", "allocclock"},
		{"allocclockgood", ""},
		{"puritybad", "policypurity"},
		{"puritygood", ""},
		{"determinismbad", "determinism"},
		{"determinismgood", ""},
		{"eventswitchbad", "eventswitch"},
		{"eventswitchgood", ""},
		{"errsinkbad", "errsink"},
		{"errsinkgood", ""},
		{"floatexactbad", "floatexact"},
		{"floatexactgood", ""},
		{"hotallocbad", "hotalloc"},
		{"hotallocgood", ""},
		{"leakbad/internal/engine", "leakcheck"},
		{"leakgood/internal/engine", ""},
		{"baredirective", metaAnalyzer},
		{"staleignore", metaAnalyzer},
	}
}
