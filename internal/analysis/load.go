package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
//
// A test variant (IsTest) exposes only the _test.go files through
// Files — analyzers report on test code without re-reporting the
// shipped files — while Info and Types cover the whole augmented
// package, so test code that touches shipped declarations resolves.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	IsTest  bool
}

// Loader parses and type-checks module packages with no tooling
// beyond the standard library: module-internal imports are resolved
// against the module directory and checked from source; standard-
// library imports are delegated to go/importer's source importer.
// Results are memoized, so shared dependencies type-check once.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset   *token.FileSet
	std    types.ImporterFrom
	loaded map[string]*Package // by import path
	stack  []string            // import cycle detection

	// A child loader (see child) reuses parent's packages that do not
	// import override, and re-checks the ones that do.
	parent   *Loader
	override string
}

// NewLoader returns a Loader for the module rooted at dir. The module
// path is read from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		ModuleDir:  abs,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		loaded:     make(map[string]*Package),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// LoadModule loads every package in the module (skipping testdata,
// hidden directories and test files), sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		ipath := l.ModulePath
		if rel != "." {
			ipath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, ipath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadModuleWithTests loads every package in the module plus, for each
// directory that has _test.go files, its test variants: the in-package
// variant (base files re-checked together with the test files, Files
// restricted to the test files) and the external _test package. This
// is what lets errsink enforce the cliio discipline on tests and
// examples, not just shipped code.
func (l *Loader) LoadModuleWithTests() ([]*Package, error) {
	base, err := l.LoadModule()
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(base))
	for _, pkg := range base {
		out = append(out, pkg)
		tests, err := l.loadTestVariants(pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, tests...)
	}
	return out, nil
}

// loadTestVariants parses the _test.go files next to base and
// type-checks up to two test packages: the augmented in-package
// variant and the external <name>_test package. Directories without
// test files yield nothing.
func (l *Loader) loadTestVariants(base *Package) ([]*Package, error) {
	key := base.PkgPath + " [test]"
	if pkg, ok := l.loaded[key]; ok {
		if pkg == nil {
			return nil, nil
		}
		ext, hasExt := l.loaded[base.PkgPath+" [xtest]"]
		if hasExt {
			return []*Package{pkg, ext}, nil
		}
		return []*Package{pkg}, nil
	}

	ents, err := os.ReadDir(base.Dir)
	if err != nil {
		return nil, err
	}
	baseName := base.Types.Name()
	var inPkg, external []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(base.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if f.Name.Name == baseName+"_test" {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}

	var out []*Package
	xl := l // resolves the external test package's imports
	if len(inPkg) > 0 {
		// Re-check the base files together with the test files so test
		// code sees unexported declarations; report only on the tests.
		pkg, err := l.check(base.PkgPath, append(append([]*ast.File{}, base.Files...), inPkg...))
		if err != nil {
			return nil, err
		}
		tv := &Package{PkgPath: base.PkgPath, Dir: base.Dir, Fset: l.fset, Files: inPkg, Types: pkg.Types, Info: pkg.Info, IsTest: true}
		l.loaded[key] = tv
		out = append(out, tv)
		// go test links the external test package against the package
		// augmented with its in-package test files, which is how an
		// export_test.go hands it test hooks. Check it the same way: a
		// child loader holds the augmented package in place of the base
		// and re-checks every module package imported through it.
		xl = l.child(base.PkgPath, tv)
	} else {
		l.loaded[key] = nil
	}
	if len(external) > 0 {
		pkg, err := xl.check(base.PkgPath+"_test", external)
		if err != nil {
			return nil, err
		}
		xv := &Package{PkgPath: base.PkgPath + "_test", Dir: base.Dir, Fset: l.fset, Files: external, Types: pkg.Types, Info: pkg.Info, IsTest: true}
		l.loaded[base.PkgPath+" [xtest]"] = xv
		out = append(out, xv)
	}
	return out, nil
}

// child returns a loader in which ipath resolves to pkg. Module
// packages l has loaded that do not import ipath, directly or not, are
// shared; the ones that do are checked again, against pkg.
func (l *Loader) child(ipath string, pkg *Package) *Loader {
	return &Loader{
		ModuleDir:  l.ModuleDir,
		ModulePath: l.ModulePath,
		fset:       l.fset,
		std:        l.std,
		loaded:     map[string]*Package{ipath: pkg},
		parent:     l,
		override:   ipath,
	}
}

// importsPath reports whether p imports path, directly or not.
func importsPath(p *types.Package, path string) bool {
	seen := make(map[*types.Package]bool)
	var walk func(q *types.Package) bool
	walk = func(q *types.Package) bool {
		if q.Path() == path {
			return true
		}
		if seen[q] {
			return false
		}
		seen[q] = true
		for _, d := range q.Imports() {
			if walk(d) {
				return true
			}
		}
		return false
	}
	return walk(p)
}

// LoadDir parses and type-checks the single package in dir under the
// given import path. Test files are excluded: the suite guards
// shipped code paths.
func (l *Loader) LoadDir(dir, ipath string) (*Package, error) {
	if pkg, ok := l.loaded[ipath]; ok {
		return pkg, nil
	}
	if l.parent != nil {
		// A package the parent cannot load fails again below, with the
		// same error.
		if pkg, err := l.parent.LoadDir(dir, ipath); err == nil && !importsPath(pkg.Types, l.override) {
			l.loaded[ipath] = pkg
			return pkg, nil
		}
	}
	for _, active := range l.stack {
		if active == ipath {
			return nil, fmt.Errorf("analysis: import cycle through %s", ipath)
		}
	}
	l.stack = append(l.stack, ipath)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	pkg, err := l.check(ipath, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	l.loaded[ipath] = pkg
	return pkg, nil
}

// check type-checks one file set under the given import path.
func (l *Loader) check(ipath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(ipath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", ipath, err)
	}
	return &Package{PkgPath: ipath, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import implements types.Importer for the type-checker's benefit:
// module-internal paths load from the module tree, everything else is
// assumed to be standard library and goes to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if rest, ok := strings.CutPrefix(path, l.ModulePath); ok && (rest == "" || strings.HasPrefix(rest, "/")) {
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(rest, "/")))
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleDir, 0)
}
