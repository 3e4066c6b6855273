// allowdoc cannot use the analysistest fixture harness: a // want
// expectation and the //lint:allow comment under test would have to share
// one line comment, which Go's grammar has no room for. The test drives
// the analyzer over parsed sources directly instead.
package allowdoc_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/allowdoc"
)

func runOn(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", "package p\n\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	analyzer := allowdoc.New("allowdoc", "poolsafe", "lockorder")
	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  analyzer,
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { got = append(got, d) },
	}
	if _, err := analyzer.Run(pass); err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

func TestAllowDoc(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // substrings, one per expected diagnostic
	}{
		{
			name: "documented allow is clean",
			src: `func f() {
	//lint:allow poolsafe: callee copies before the defer runs
	_ = 1
}`,
		},
		{
			name: "colon form is clean",
			src: `func f() {
	_ = 1 //lint:allow lockorder: the callee takes no lock of a lower tier
}`,
		},
		{
			name: "undocumented allow is a diagnostic",
			src: `func f() {
	_ = 1 //lint:allow poolsafe
}`,
			want: []string{"lint:allow poolsafe has no rationale"},
		},
		{
			name: "unknown analyzer name",
			src: `func f() {
	_ = 1 //lint:allow poolsfae: typo'd name suppresses nothing
}`,
			want: []string{`lint:allow names unknown analyzer "poolsfae"`},
		},
		{
			name: "no analyzer at all",
			src: `func f() {
	_ = 1 //lint:allow
}`,
			want: []string{"lint:allow names no analyzer"},
		},
		{
			name: "bare allow cannot silence allowdoc itself",
			src: `func f() {
	//lint:allow allowdoc
	_ = 1
}`,
			want: []string{"lint:allow allowdoc has no rationale"},
		},
		{
			name: "documented allowdoc allow still audited clean",
			src: `func f() {
	//lint:allow allowdoc: reviewed meta-escape
	_ = 1
}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runOn(t, tc.src)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d: %+v", len(got), len(tc.want), got)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i].Message, w) {
					t.Errorf("diagnostic %d = %q, want substring %q", i, got[i].Message, w)
				}
			}
		})
	}
}
