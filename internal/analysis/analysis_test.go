package analysis

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The loader is shared across tests so the standard library and the
// module's internal packages type-check once.
var (
	loaderOnce sync.Once
	sharedLdr  *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedLdr, loaderErr = NewLoader(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLdr
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := fixtureLoader(t).LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// lineKey addresses one source line of a fixture.
type lineKey struct {
	file string
	line int
}

// wantMarkers extracts the "// want: <substring>" expectations from
// every Go file in dir, keyed by file and line.
func wantMarkers(t *testing.T, dir string) map[lineKey]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	wants := make(map[lineKey]string)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if _, after, ok := strings.Cut(line, "// want: "); ok {
				wants[lineKey{path, i + 1}] = strings.TrimSpace(after)
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over one fixture package and compares
// the diagnostics against the fixture's want markers: every marked
// line must produce a matching diagnostic, and no diagnostic may land
// on an unmarked line. It returns the diagnostics for extra checks.
func checkFixture(t *testing.T, name string, a *Analyzer) []Diagnostic {
	t.Helper()
	pkg := loadFixture(t, name)
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	wants := wantMarkers(t, filepath.Join("testdata", "src", name))
	for _, d := range diags {
		if _, ok := wants[lineKey{d.Pos.Filename, d.Pos.Line}]; !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, substr := range wants {
		found := false
		for _, d := range diags {
			if d.Pos.Filename == k.file && d.Pos.Line == k.line && strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic containing %q; got %v", k.file, k.line, substr, diags)
		}
	}
	return diags
}

func TestAllocClockPositive(t *testing.T) {
	if diags := checkFixture(t, "allocclockbad", AllocClock); len(diags) == 0 {
		t.Fatal("allocclock reported nothing on the bad fixture")
	}
}

func TestAllocClockNegative(t *testing.T) {
	if diags := checkFixture(t, "allocclockgood", AllocClock); len(diags) != 0 {
		t.Fatalf("allocclock flagged the clean fixture: %v", diags)
	}
}

func TestPolicyPurityPositive(t *testing.T) {
	if diags := checkFixture(t, "puritybad", PolicyPurity); len(diags) == 0 {
		t.Fatal("policypurity reported nothing on the bad fixture")
	}
}

func TestPolicyPurityNegative(t *testing.T) {
	if diags := checkFixture(t, "puritygood", PolicyPurity); len(diags) != 0 {
		t.Fatalf("policypurity flagged the clean fixture: %v", diags)
	}
}

func TestDeterminismPositive(t *testing.T) {
	if diags := checkFixture(t, "determinismbad", Determinism); len(diags) == 0 {
		t.Fatal("determinism reported nothing on the bad fixture")
	}
}

// TestDeterminismNegative also exercises the ignore directive: the
// fixture's map range is suppressed by a reasoned //dtbvet:ignore.
func TestDeterminismNegative(t *testing.T) {
	if diags := checkFixture(t, "determinismgood", Determinism); len(diags) != 0 {
		t.Fatalf("determinism flagged the clean fixture: %v", diags)
	}
}

// TestDeterminismServingExemption: under a serving package path
// (internal/daemon, cmd/dtbd) the wall-clock rule is waived — service
// latencies are real time — but the math/rand and map-range bans must
// keep firing there.
func TestDeterminismServingExemption(t *testing.T) {
	dir := filepath.Join("testdata", "src", "determinismbad")
	for _, ipath := range []string{"fixture/internal/daemon", "fixture/cmd/dtbd"} {
		pkg, err := fixtureLoader(t).LoadDir(dir, ipath)
		if err != nil {
			t.Fatalf("loading fixture as %s: %v", ipath, err)
		}
		diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism})
		var sawRand, sawMapRange bool
		for _, d := range diags {
			if strings.Contains(d.Message, "wall clock") {
				t.Errorf("%s: wall-clock diagnostic fired inside the serving exemption: %s", ipath, d)
			}
			if strings.Contains(d.Message, "xrand") {
				sawRand = true
			}
			if strings.Contains(d.Message, "nondeterministic order") {
				sawMapRange = true
			}
		}
		if !sawRand || !sawMapRange {
			t.Errorf("%s: rand/map-range bans must survive the serving exemption (rand %v, map %v): %v",
				ipath, sawRand, sawMapRange, diags)
		}
	}
}

// TestLeakCheckDaemonScope: internal/daemon is in leakcheck's scope,
// so the leaky fixture fires when loaded under that path.
func TestLeakCheckDaemonScope(t *testing.T) {
	dir := filepath.Join("testdata", "src", "leakbad", "internal", "engine")
	pkg, err := fixtureLoader(t).LoadDir(dir, "leakfixture/internal/daemon")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{LeakCheck}); len(diags) == 0 {
		t.Fatal("leakcheck silent under internal/daemon; the daemon is in its scope")
	}
}

func TestEventSwitchPositive(t *testing.T) {
	if diags := checkFixture(t, "eventswitchbad", EventSwitch); len(diags) == 0 {
		t.Fatal("eventswitch reported nothing on the bad fixture")
	}
}

func TestEventSwitchNegative(t *testing.T) {
	if diags := checkFixture(t, "eventswitchgood", EventSwitch); len(diags) != 0 {
		t.Fatalf("eventswitch flagged the clean fixture: %v", diags)
	}
}

// TestBareDirectiveReported: an unscoped ignore directive suppresses
// NOTHING (a suppression that cannot be retired is drift), so both the
// underlying diagnostic and the directive itself are reported.
func TestBareDirectiveReported(t *testing.T) {
	pkg := loadFixture(t, "baredirective")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism})
	if len(diags) != 2 {
		t.Fatalf("want the map-range diagnostic plus the directive diagnostic, got %v", diags)
	}
	var sawDirective, sawRange bool
	for _, d := range diags {
		switch d.Analyzer {
		case "dtbvet":
			sawDirective = strings.Contains(d.Message, "needs an analyzer scope and a reason")
		case "determinism":
			sawRange = true
		}
	}
	if !sawDirective || !sawRange {
		t.Fatalf("missing expected diagnostics: %v", diags)
	}
}

// TestStaleIgnoreReported: an ignore directive whose analyzer ran and
// suppressed nothing is itself reported, so an accepted finding cannot
// outlive its fix; one whose analyzer did not run is not provably
// stale and stays quiet.
func TestStaleIgnoreReported(t *testing.T) {
	pkg := loadFixture(t, "staleignore")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism})
	if len(diags) != 1 || diags[0].Analyzer != metaAnalyzer || !strings.Contains(diags[0].Message, "stale //dtbvet:ignore: determinism") {
		t.Fatalf("want one stale-directive diagnostic, got %v", diags)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{ErrSink}); len(diags) != 0 {
		t.Fatalf("a directive for an analyzer that did not run was reported: %v", diags)
	}
}

func TestErrSinkPositive(t *testing.T) {
	if diags := checkFixture(t, "errsinkbad", ErrSink); len(diags) == 0 {
		t.Fatal("errsink reported nothing on the bad fixture")
	}
}

func TestErrSinkNegative(t *testing.T) {
	if diags := checkFixture(t, "errsinkgood", ErrSink); len(diags) != 0 {
		t.Fatalf("errsink flagged the clean fixture: %v", diags)
	}
}

func TestFloatExactPositive(t *testing.T) {
	if diags := checkFixture(t, "floatexactbad", FloatExact); len(diags) == 0 {
		t.Fatal("floatexact reported nothing on the bad fixture")
	}
}

func TestFloatExactNegative(t *testing.T) {
	if diags := checkFixture(t, "floatexactgood", FloatExact); len(diags) != 0 {
		t.Fatalf("floatexact flagged the clean fixture: %v", diags)
	}
}

func TestHotAllocPositive(t *testing.T) {
	diags := checkFixture(t, "hotallocbad", HotAlloc)
	if len(diags) == 0 {
		t.Fatal("hotalloc reported nothing on the bad fixture")
	}
	for _, d := range diags {
		if d.Severity != SeverityWarning {
			t.Errorf("hotalloc diagnostic has severity %q, want warning: %s", d.Severity, d)
		}
	}
}

func TestHotAllocNegative(t *testing.T) {
	if diags := checkFixture(t, "hotallocgood", HotAlloc); len(diags) != 0 {
		t.Fatalf("hotalloc flagged the clean fixture: %v", diags)
	}
}

func TestLeakCheckPositive(t *testing.T) {
	if diags := checkFixture(t, "leakbad/internal/engine", LeakCheck); len(diags) == 0 {
		t.Fatal("leakcheck reported nothing on the bad fixture")
	}
}

func TestLeakCheckNegative(t *testing.T) {
	if diags := checkFixture(t, "leakgood/internal/engine", LeakCheck); len(diags) != 0 {
		t.Fatalf("leakcheck flagged the clean fixture: %v", diags)
	}
}

// TestLeakCheckScoped: the same leaky code outside internal/engine and
// internal/sim is not leakcheck's business.
func TestLeakCheckScoped(t *testing.T) {
	dir := filepath.Join("testdata", "src", "leakbad", "internal", "engine")
	pkg, err := fixtureLoader(t).LoadDir(dir, "fixture/leakbad/unscoped")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{LeakCheck}); len(diags) != 0 {
		t.Fatalf("leakcheck fired outside its package scope: %v", diags)
	}
}

// TestSelfTest runs the same mutation check as dtbvet -selftest: every
// analyzer must be able to fire.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every fixture; skipped in -short mode")
	}
	if err := SelfTest(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
}

// TestParseIgnore pins the directive grammar: scoped names plus a
// mandatory reason, with every malformed shape reported.
func TestParseIgnore(t *testing.T) {
	known := map[string]bool{"errsink": true, "floatexact": true, metaAnalyzer: true}
	for _, tc := range []struct {
		text      string
		analyzers []string
		malformed string
	}{
		{"errsink -- read-only handle", []string{"errsink"}, ""},
		{"errsink,floatexact -- both intentional", []string{"errsink", "floatexact"}, ""},
		{"", nil, "needs an analyzer scope and a reason"},
		{"some free-text reason", nil, "needs an analyzer scope and a reason"},
		{"errsink --", nil, "needs a reason"},
		{"nonsense -- reason", nil, "unknown analyzer"},
		{"dtbvet -- reason", nil, "unknown analyzer"}, // the meta name is not suppressible
		{"-- reason", nil, "at least one analyzer name"},
	} {
		d := parseIgnore(tc.text, known)
		if tc.malformed != "" {
			if !strings.Contains(d.malformed, tc.malformed) {
				t.Errorf("parseIgnore(%q).malformed = %q, want containing %q", tc.text, d.malformed, tc.malformed)
			}
			continue
		}
		if d.malformed != "" {
			t.Errorf("parseIgnore(%q) unexpectedly malformed: %s", tc.text, d.malformed)
			continue
		}
		if len(d.analyzers) != len(tc.analyzers) {
			t.Errorf("parseIgnore(%q).analyzers = %v, want %v", tc.text, d.analyzers, tc.analyzers)
			continue
		}
		for i := range d.analyzers {
			if d.analyzers[i] != tc.analyzers[i] {
				t.Errorf("parseIgnore(%q).analyzers = %v, want %v", tc.text, d.analyzers, tc.analyzers)
			}
		}
	}
}

// TestWriteJSONGolden pins the -json contract byte for byte.
func TestWriteJSONGolden(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod")
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: filepath.Join(root, "internal", "gc", "gc.go"), Line: 358, Column: 11},
			Analyzer: "hotalloc", Severity: SeverityWarning,
			Message: "hotpath CollectAt appends to dead, which never has capacity",
		},
		{
			Pos:      token.Position{Filename: filepath.Join(root, "sim.go"), Line: 136, Column: 15},
			Analyzer: "floatexact", Severity: SeverityError,
			Message: "== on Machine compares floating-point data (via MIPS)",
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, root, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{
  "diagnostics": [
    {
      "file": "internal/gc/gc.go",
      "line": 358,
      "column": 11,
      "analyzer": "hotalloc",
      "severity": "warning",
      "message": "hotpath CollectAt appends to dead, which never has capacity"
    },
    {
      "file": "sim.go",
      "line": 136,
      "column": 15,
      "analyzer": "floatexact",
      "severity": "error",
      "message": "== on Machine compares floating-point data (via MIPS)"
    }
  ],
  "count": 2
}
`
	if got := buf.String(); got != want {
		t.Errorf("WriteJSON output drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestModuleClean is the self-test dtbvet runs in CI: the repository
// itself must be clean under the full suite.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := fixtureLoader(t).LoadModuleWithTests()
	if err != nil {
		t.Fatalf("LoadModuleWithTests: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModuleWithTests found only %d packages; the walk is broken", len(pkgs))
	}
	var tests int
	for _, pkg := range pkgs {
		if pkg.IsTest {
			tests++
		}
	}
	if tests == 0 {
		t.Fatal("LoadModuleWithTests loaded no test packages; the test walk is broken")
	}
	for _, d := range RunAnalyzers(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

func TestKBNamed(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"budgetKB", true},
		{"mbFree", true},
		{"kb_per_op", true},
		{"heapMB2", true},
		{"Kilobytes", true},
		{"megabytes", true},
		{"memBytes", false}, // "mb" inside a word names no unit
		{"numBytes", false},
		{"climb", false},
		{"rawBytes", false},
	} {
		if got := kbNamed(tc.name); got != tc.want {
			t.Errorf("kbNamed(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParseVerbs(t *testing.T) {
	verbs := parseVerbs("at %d: %6.2f KB (%s)")
	if len(verbs) != 3 {
		t.Fatalf("want 3 verbs, got %+v", verbs)
	}
	if verbs[0].argIndex != 0 || verbs[1].argIndex != 1 || verbs[2].argIndex != 2 {
		t.Fatalf("bad operand indexes: %+v", verbs)
	}
	if !labelledKBMB(verbs[1].trailing) {
		t.Errorf("verb %+v should read as KB-labelled", verbs[1])
	}
	if labelledKBMB(verbs[0].trailing) || labelledKBMB(verbs[2].trailing) {
		t.Errorf("unlabelled verbs misread: %+v", verbs)
	}

	// %% does not consume an operand; * consumes one.
	verbs = parseVerbs("100%% done, %*d MB")
	if len(verbs) != 1 || verbs[0].argIndex != 1 {
		t.Fatalf("star-width handling broken: %+v", verbs)
	}
	if !labelledKBMB(verbs[0].trailing) {
		t.Errorf("MB label missed in %+v", verbs[0])
	}
}

func TestLabelledKBMB(t *testing.T) {
	for _, tc := range []struct {
		trailing string
		want     bool
	}{
		{" KB", true},
		{"MB", true},
		{" KB/s", true},
		{" KB remaining", true},
		{" KByteshire", false}, // longer word, not a unit
		{" bytes", false},
		{"", false},
	} {
		if got := labelledKBMB(tc.trailing); got != tc.want {
			t.Errorf("labelledKBMB(%q) = %v, want %v", tc.trailing, got, tc.want)
		}
	}
}
