// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary, sized for this repository's
// custom vetters. The container images this repo builds in carry only the
// Go toolchain — no module proxy — so the real x/tools framework cannot be
// vendored; this package mirrors its Analyzer/Pass/Diagnostic shape closely
// enough that the analyzers in internal/lint could be ported to the real
// multichecker by swapping one import.
//
// Differences from x/tools kept deliberately small:
//
//   - Passes run in dependency order over source-typechecked packages (see
//     internal/lint/load), so module-local types.Object identities are
//     shared across passes. Analyzers exchange interprocedural facts
//     through Pass.Facts, a single map shared by all passes of one
//     analyzer run, instead of x/tools' gob-encoded fact streams.
//   - Analyzers needing a whole-program view (e.g. "this constant is
//     referenced exactly once across the repo") implement Finish, called
//     once after every package's Run completed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags
	// (lower-case, no spaces).
	Name string
	// Doc is the one-paragraph description shown by clonos-vet -help.
	Doc string
	// Run checks a single package and reports diagnostics via pass.Report.
	// The returned value is stored on pass.Result for Finish.
	Run func(pass *Pass) (any, error)
	// Finish, if non-nil, runs after every package's Run completed, for
	// whole-program invariants. Diagnostics are reported through the
	// individual passes (whose Report hooks are still live).
	Finish func(passes []*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Pass carries one package's typed syntax through an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed files, including in-package
	// _test.go files when the loader was asked for them.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// TestFiles marks which of Files came from _test.go sources (most
	// analyzers skip or specialize on them).
	TestFiles map[*ast.File]bool
	// Facts is shared across every pass of one analyzer run, keyed by
	// module-local types.Object (identity holds because all module
	// packages are typechecked in one universe). Analyzers use it to
	// export declaration annotations to downstream packages.
	Facts map[types.Object]any
	// Result is the value returned by Run, for Finish.
	Result any

	report func(Diagnostic)
}

// NewPass assembles a pass; report receives each diagnostic as it is
// emitted. Used by the drivers (clonos-vet and analysistest).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, testFiles map[*ast.File]bool, facts map[types.Object]any,
	report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		TestFiles: testFiles, Facts: facts, report: report,
	}
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer
	if p.report != nil {
		p.report(d)
	}
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FileFor returns the pass file containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// LineComments returns, for the file containing pos, a map from line
// number to the concatenated comment text on that line (both leading and
// trailing comments). Analyzers use it for line-scoped annotations such
// as //clonos:allow.
func (p *Pass) LineComments(f *ast.File) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := p.Fset.Position(c.Pos()).Line
			out[line] += c.Text
		}
	}
	return out
}

// Allowed reports whether the diagnostic position carries a line-scoped
// suppression comment: `//clonos:allow <analyzer>` on the same line or
// the line above. The DESIGN.md "Static invariants" section documents
// when suppression is acceptable; prefer fixing the code.
func (p *Pass) Allowed(pos token.Pos) bool {
	f := p.FileFor(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	marker := "clonos:allow " + p.Analyzer.Name
	lc := p.LineComments(f)
	return strings.Contains(lc[line], marker) || strings.Contains(lc[line-1], marker)
}

// CommentHas reports whether any comment in the group contains the given
// marker (e.g. "clonos:mainthread"). Nil-safe.
func CommentHas(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// Inspect walks every file of the pass in depth-first order, calling fn
// for each node; fn returning false prunes the subtree.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
