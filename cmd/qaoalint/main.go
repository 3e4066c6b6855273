// qaoalint is the repo's invariant checker: a multichecker over the seven
// analyzers of internal/analysis (determinism, obsvnames, ctxflow,
// errcmp, poolsafe, lockorder, allowdoc). Run it from the module root; it
// loads the packages itself (go list with the compiler's export data),
// test files included:
//
//	go run ./cmd/qaoalint ./...
//
// Individual analyzers can be disabled with -<name>=false.
//
// -json switches to machine-readable output: a JSON array of findings,
// each {"file","line","col","analyzer","message","allowed"}, sorted by
// position. By default only live findings (allowed=false) appear — a clean
// tree prints []. -include-allowed adds the findings that //lint:allow
// escapes suppressed, so the blast radius of every escape stays auditable.
//
// Exit status: 0 clean (allowed-only findings are clean), 1 on load or run
// errors, 2 when live diagnostics were reported (vet convention). With
// -json the findings go to stdout and the exit code is the only failure
// signal CI needs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/allowdoc"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errcmp"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/obsvnames"
	"repro/internal/analysis/poolsafe"
)

var all = buildAll()

func buildAll() []*analysis.Analyzer {
	base := []*analysis.Analyzer{
		determinism.Analyzer,
		obsvnames.Analyzer,
		ctxflow.Analyzer,
		errcmp.Analyzer,
		poolsafe.Analyzer,
		lockorder.Analyzer,
	}
	// allowdoc audits the escape comments of every analyzer, itself
	// included.
	names := []string{"allowdoc"}
	for _, a := range base {
		names = append(names, a.Name)
	}
	return append(base, allowdoc.New(names...))
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	includeAllowed := flag.Bool("include-allowed", false, "with -json, also emit findings suppressed by //lint:allow escapes (allowed=true)")
	enabled := map[string]*bool{}
	for _, a := range all {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	flag.Parse()

	var active []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(run(args, active, *jsonOut, *includeAllowed))
}

// jsonFinding is one -json output record: position, analyzer, message,
// and the allow-escape state (true when a //lint:allow suppressed it).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Allowed  bool   `json:"allowed"`
}

// run loads the named patterns (with tests) and reports every
// diagnostic in vet format, or as a JSON array with -json.
func run(patterns []string, active []*analysis.Analyzer, jsonOut, includeAllowed bool) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
		return 1
	}
	diags, suppressed, err := analysis.RunAnalyzers(pkgs, active)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
		return 1
	}
	if jsonOut {
		out := diags
		if includeAllowed {
			out = append(out, suppressed...)
			analysis.SortDiagnostics(out)
		}
		findings := []jsonFinding{} // encode a clean tree as [], not null
		seen := map[jsonFinding]bool{}
		for _, d := range out {
			f := jsonFinding{
				File:     d.Position.Filename,
				Line:     d.Position.Line,
				Col:      d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Allowed:  d.Allowed,
			}
			if seen[f] {
				continue // a file analyzed under both a package and its test variant
			}
			seen[f] = true
			findings = append(findings, f)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
			return 1
		}
		if len(diags) > 0 {
			return 2
		}
		return 0
	}
	seen := map[string]bool{}
	for _, d := range diags {
		line := fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
		if seen[line] {
			continue // a file analyzed under both a package and its test variant
		}
		seen[line] = true
		fmt.Fprintln(os.Stderr, line)
	}
	if len(seen) > 0 {
		return 2
	}
	return 0
}
