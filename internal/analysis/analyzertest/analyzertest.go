// Package analyzertest is a minimal stand-in for
// golang.org/x/tools/go/analysis/analysistest (which is not part of
// the toolchain-vendored x/tools subset this repo builds against). It
// type-checks one directory of test sources as a single package —
// under any import path the caller chooses, which is how the suvlint
// analyzers' package-scope predicates (deterministic core, simulated
// machine) are exercised — runs an analyzer and its Requires DAG, and
// matches reported diagnostics against analysistest-style
//
//	// want "regexp" "another regexp"
//
// comments on the reporting line. Stdlib imports in test sources are
// type-checked from GOROOT source, so no export data is required.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run analyzes the Go sources in dir as one package with the given
// import path and reports expectation mismatches through t.
func Run(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	diags, fset, files, err := analyze(dir, pkgPath, a)
	if err != nil {
		t.Fatalf("analyzertest: %v", err)
	}
	checkExpectations(t, fset, files, diags)
}

// Diagnostics runs the analyzer and returns raw findings (for tests
// that assert on counts or message content directly).
func Diagnostics(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	diags, _, _, err := analyze(dir, pkgPath, a)
	if err != nil {
		t.Fatalf("analyzertest: %v", err)
	}
	return diags
}

func analyze(dir, pkgPath string, a *analysis.Analyzer) ([]analysis.Diagnostic, *token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no Go sources in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		// The "source" importer type-checks stdlib dependencies from
		// GOROOT source, so tests need no compiled export data.
		Importer: importer.ForCompiler(fset, "source", nil),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}

	var diags []analysis.Diagnostic
	results := map[*analysis.Analyzer]any{}
	var run func(a *analysis.Analyzer) error
	run = func(a *analysis.Analyzer) error {
		if _, done := results[a]; done {
			return nil
		}
		for _, dep := range a.Requires {
			if err := run(dep); err != nil {
				return err
			}
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   results,
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, d)
			},
			ImportObjectFact:  func(types.Object, analysis.Fact) bool { panic("facts unsupported") },
			ExportObjectFact:  func(types.Object, analysis.Fact) { panic("facts unsupported") },
			ImportPackageFact: func(*types.Package, analysis.Fact) bool { panic("facts unsupported") },
			ExportPackageFact: func(analysis.Fact) { panic("facts unsupported") },
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		results[a] = res
		return nil
	}
	if err := run(a); err != nil {
		return nil, nil, nil, err
	}
	return diags, fset, files, nil
}

var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// checkExpectations matches diagnostics against // want comments.
func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	want := map[key][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					want[k] = append(want[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, re := range want[k] {
			if re.MatchString(d.Message) {
				want[k] = append(want[k][:i], want[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	var leftover []string
	for k, res := range want {
		for _, re := range res {
			leftover = append(leftover, fmt.Sprintf("%s:%d: expected diagnostic matching %q was not reported", k.file, k.line, re))
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Error(l)
	}
}
