// qaoalint is the repo's invariant checker: a multichecker over the seven
// analyzers of internal/analysis (determinism, obsvnames, ctxflow,
// errcmp, poolsafe, lockorder, allowdoc). It runs in two modes:
//
// Standalone, from the module root (loads packages itself, test files
// included):
//
//	go run ./cmd/qaoalint ./...
//
// As a vet tool (the go command drives it one compilation unit at a time,
// passing a JSON config with the compiler's export data):
//
//	go build -o qaoalint ./cmd/qaoalint
//	go vet -vettool=$(pwd)/qaoalint ./...
//
// Individual analyzers can be disabled with -<name>=false.
//
// -json switches standalone mode to machine-readable output: a JSON array
// of findings, each {"file","line","col","analyzer","message","allowed"},
// sorted by position. By default only live findings (allowed=false)
// appear — a clean tree prints []. -include-allowed adds the findings
// that //lint:allow escapes suppressed, so the blast radius of every
// escape stays auditable. In vet-unit mode -json emits the x/tools
// unitchecker JSON object ({"pkg": {"analyzer": [{posn, message}]}}) on
// stdout so `go vet -json` aggregates it.
//
// Exit status, both modes: 0 clean (allowed-only findings are clean),
// 1 on driver/load errors, 2 when live diagnostics were reported (vet
// convention). With -json the findings go to stdout and the exit code is
// the only failure signal CI needs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/allowdoc"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errcmp"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/obsvnames"
	"repro/internal/analysis/poolsafe"
)

// version participates in the go command's content-based vet caching: it
// must change when the analyzers change behavior, or cached clean results
// would mask new diagnostics. Bump on any analyzer change.
const version = "qaoalint-3.0.0"

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
	var vFlag string
	flag.StringVar(&vFlag, "V", "", "print version and exit (the go command probes -V=full)")
	printFlags := flag.Bool("flags", false, "print the tool's flags as JSON and exit (the go command probes this)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (standalone: array of findings on stdout; vet unit: unitchecker object)")
	includeAllowed := flag.Bool("include-allowed", false, "with -json, also emit findings suppressed by //lint:allow escapes (allowed=true)")
	enabled := map[string]*bool{}
	for _, a := range all {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	flag.Parse()

	if vFlag != "" {
		// go vet probes `tool -V=full` and keys its result cache on the
		// output, which must be of the form "name version ...".
		fmt.Printf("qaoalint version %s\n", version)
		return
	}
	if *printFlags {
		// go vet probes `tool -flags` to learn which flags it may forward.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var fs []jsonFlag
		flag.VisitAll(func(f *flag.Flag) {
			b, ok := f.Value.(interface{ IsBoolFlag() bool })
			fs = append(fs, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
		})
		if err := json.NewEncoder(os.Stdout).Encode(fs); err != nil {
			fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var active []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0], active, *jsonOut))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, active, *jsonOut, *includeAllowed))
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

// runStandalone loads the named patterns (with tests) and reports every
// diagnostic in vet format, or as a JSON array with -json.
func runStandalone(patterns []string, active []*analysis.Analyzer, jsonOut, includeAllowed bool) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
		return 1
	}
	diags, suppressed, err := analysis.RunAnalyzersVerbose(pkgs, active)
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

// vetConfig is the JSON the go command hands a -vettool per compilation
// unit (the fields qaoalint consumes; unknown fields are ignored).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one compilation unit described by cfgPath, speaking
// enough of the x/tools unitchecker protocol for `go vet -vettool`.
func runVetUnit(cfgPath string, active []*analysis.Analyzer, jsonOut bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "qaoalint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the facts file to exist even though
	// qaoalint's analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("qaoalint: no facts\n"), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	// Strip the " [pkg.test]" suffix of in-package test units so the
	// per-package scoping of the analyzers still recognizes the path.
	checkPath := cfg.ImportPath
	if i := strings.Index(checkPath, " ["); i >= 0 {
		checkPath = checkPath[:i]
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	info := analysis.NewInfo()
	tpkg, err := conf.Check(checkPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
		return 1
	}
	pkg := &analysis.Package{Path: checkPath, Fset: fset, Syntax: files, Types: tpkg, Info: info}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, active)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
		return 1
	}
	if jsonOut {
		// The unitchecker JSON shape: {"pkg": {"analyzer": [{posn, message}]}}.
		// `go vet -json` reads this from stdout and aggregates; diagnostics
		// reported this way exit 0 by the protocol's convention.
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := map[string][]jsonDiag{}
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{Posn: d.Position.String(), Message: d.Message})
		}
		out := map[string]map[string][]jsonDiag{cfg.ImportPath: byAnalyzer}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "qaoalint: %v\n", err)
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Position, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
