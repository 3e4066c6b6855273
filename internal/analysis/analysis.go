// Package analysis is a self-contained, stdlib-only miniature of
// golang.org/x/tools/go/analysis: enough of the Analyzer/Pass/Diagnostic
// contract to host the repo's invariant checkers (cmd/qaoalint) without an
// external dependency. An Analyzer inspects one type-checked package at a
// time and reports diagnostics; the loader (Load) resolves packages and
// their import graph through `go list -export`, so type information is
// exactly what the compiler built.
//
// Escape hatch: a diagnostic is suppressed when the offending line, or the
// line immediately above it, carries a comment of the form
//
//	//lint:allow <analyzer> [reason...]
//
// Reasons are free text but conventionally state why the invariant does
// not apply (e.g. a measured wall-clock span that determinism gates strip).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// escapes. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects the package of pass and reports findings through
	// pass.Report/Reportf. The returned value is unused (kept for parity
	// with x/tools signatures).
	Run func(pass *Pass) (any, error)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)

	// ReportSuppressed, when set by the driver, receives the diagnostics
	// an //lint:allow escape suppressed (with Allowed true) — the
	// machine-readable output modes surface them so an allow's blast
	// radius stays visible.
	ReportSuppressed func(Diagnostic)

	allowed   allowIndex
	callgraph *CallGraph
}

// Diagnostic is one finding. Position is resolved against the reporting
// pass's FileSet at report time: token.Pos values are only meaningful
// relative to their own FileSet, and every loaded package has its own.
type Diagnostic struct {
	Position token.Position
	Message  string
	Analyzer string
	// Allowed marks a finding suppressed by an //lint:allow escape; such
	// diagnostics only flow through Pass.ReportSuppressed.
	Allowed bool
}

// Reportf reports a formatted diagnostic at pos unless an //lint:allow
// escape covers it, in which case the suppressed finding goes to
// ReportSuppressed (when the driver asked for it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	}
	if p.Allowed(pos) {
		if p.ReportSuppressed != nil {
			d.Allowed = true
			p.ReportSuppressed(d)
		}
		return
	}
	p.Report(d)
}

// Allowed reports whether pos is covered by a //lint:allow escape for this
// analyzer (same line or the line immediately above).
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allowed == nil {
		p.allowed = buildAllowIndex(p.Fset, p.Files, p.Analyzer.Name)
	}
	position := p.Fset.Position(pos)
	return p.allowed[allowKey{position.Filename, position.Line}]
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

type allowKey struct {
	file string
	line int
}

type allowIndex map[allowKey]bool

// buildAllowIndex records, for every //lint:allow <name> comment, the
// comment's own line and the line below it as suppressed.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, name string) allowIndex {
	idx := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				rest := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				// Accept both "lint:allow name reason" and "lint:allow name: reason".
				if len(rest) == 0 || strings.TrimSuffix(rest[0], ":") != name {
					continue
				}
				pos := fset.Position(c.Pos())
				idx[allowKey{pos.Filename, pos.Line}] = true
				idx[allowKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return idx
}

// PkgNamed reports whether path denotes one of the given package names:
// an exact match, or a path whose last element matches (so both
// "repro/internal/compile" and a fixture package "compile" qualify).
func PkgNamed(path string, names ...string) bool {
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	for _, n := range names {
		if path == n || last == n {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined live diagnostics plus the findings that //lint:allow escapes
// suppressed, each marked Allowed, so callers (the -json output mode) can
// surface the blast radius of every escape. Both slices come back sorted
// by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) (diags, suppressed []Diagnostic, err error) {
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:         a,
				Fset:             pkg.Fset,
				Files:            pkg.Syntax,
				Pkg:              pkg.Types,
				TypesInfo:        pkg.Info,
				Report:           func(d Diagnostic) { diags = append(diags, d) },
				ReportSuppressed: func(d Diagnostic) { suppressed = append(suppressed, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	SortDiagnostics(diags)
	SortDiagnostics(suppressed)
	return diags, suppressed, nil
}

// SortDiagnostics orders diagnostics by file, line, column, then analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := ds[i].Position, ds[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}
