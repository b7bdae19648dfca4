// Command clonos-vet is the repo's multichecker: it runs the
// internal/lint analyzers (bufown, mainthread, snapcov, detflow,
// crashpoint, nosleepwait) over the requested packages and
// exits nonzero on any diagnostic.
//
// Usage:
//
//	clonos-vet [-list] [-json] [patterns...]   (default pattern: ./...)
//
// Run it via `make lint`. Diagnostics print as
// file:line:col: message (analyzer); with -json the same findings are
// additionally written to stdout as the JSON array documented in
// internal/lint/findings (human-readable lines move to stderr). Suppress
// an individual line — after review, see DESIGN.md "Static invariants" —
// with `//clonos:allow <analyzer>`.
package main

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"sort"

	"clonos/internal/lint/analysis"
	"clonos/internal/lint/bufown"
	"clonos/internal/lint/crashpoint"
	"clonos/internal/lint/detflow"
	"clonos/internal/lint/findings"
	"clonos/internal/lint/load"
	"clonos/internal/lint/mainthread"
	"clonos/internal/lint/nosleepwait"
	"clonos/internal/lint/snapcov"
)

var suite = []*analysis.Analyzer{
	bufown.Analyzer,
	mainthread.Analyzer,
	snapcov.Analyzer,
	detflow.Analyzer,
	crashpoint.Analyzer,
	nosleepwait.Analyzer,
}

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers and exit")
	noTests := flag.Bool("notests", false, "skip _test.go files (crashpoint and nosleepwait lose coverage)")
	jsonOut := flag.Bool("json", false, "write findings to stdout as JSON (see internal/lint/findings); human-readable lines go to stderr")
	flag.Parse()
	if *listOnly {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset, pkgs, err := load.Load(load.Config{Dir: ".", Tests: !*noTests}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clonos-vet:", err)
		os.Exit(2)
	}
	pkgs = topoSort(pkgs)

	var diags []analysis.Diagnostic
	for _, a := range suite {
		facts := map[types.Object]any{}
		var passes []*analysis.Pass
		for _, p := range pkgs {
			pass := analysis.NewPass(a, fset, p.Files, p.Types, p.Info, p.TestFiles, facts,
				func(d analysis.Diagnostic) { diags = append(diags, d) })
			res, err := a.Run(pass)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clonos-vet: %s: %s: %v\n", a.Name, p.ImportPath, err)
				os.Exit(2)
			}
			pass.Result = res
			passes = append(passes, pass)
		}
		if a.Finish != nil {
			if err := a.Finish(passes); err != nil {
				fmt.Fprintf(os.Stderr, "clonos-vet: %s: %v\n", a.Name, err)
				os.Exit(2)
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}
	for _, d := range diags {
		fmt.Fprintf(human, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer.Name)
	}
	if *jsonOut {
		fs := make([]findings.Finding, 0, len(diags))
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			fs = append(fs, findings.Finding{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer.Name,
				Message:  d.Message,
			})
		}
		findings.Sort(fs)
		if err := findings.Encode(os.Stdout, fs); err != nil {
			fmt.Fprintln(os.Stderr, "clonos-vet: encoding findings:", err)
			os.Exit(2)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// topoSort orders packages dependencies-first so annotation facts written
// by a declaring package's pass are visible to its importers' passes
// (go list pattern output is lexical, which puts internal/job before
// internal/netstack).
func topoSort(pkgs []*load.Package) []*load.Package {
	byPath := map[string]*load.Package{}
	for _, p := range pkgs {
		byPath[p.Types.Path()] = p
	}
	seen := map[*load.Package]bool{}
	var out []*load.Package
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		if !p.XTest {
			visit(p)
		}
	}
	for _, p := range pkgs {
		visit(p) // XTest packages after their subjects
	}
	return out
}
