package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// lintFixture type-checks one testdata file as a package with the given
// import path and runs it through check, the pipeline behind Run.
func lintFixture(t *testing.T, pkgPath, file string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	parsed, err := parser.ParseFile(fset, filepath.Join("testdata", file), nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	info := newInfo()
	pkg, err := cfg.Check(pkgPath, fset, []*ast.File{parsed}, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", file, err)
	}
	return check(fset, []*pkgUnit{{path: pkgPath, files: []*ast.File{parsed}, pkg: pkg, info: info}})
}

// keysOf compresses findings to "check:line" for table comparison.
func keysOf(fs []Finding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, fmt.Sprintf("%s:%d", f.Check, f.Pos.Line))
	}
	sort.Strings(out)
	return out
}

func TestCheckers(t *testing.T) {
	cases := []struct {
		name    string
		file    string
		pkgPath string
		want    []string // "check:line", sorted
	}{
		{
			name:    "maprange in deterministic package",
			file:    "maprange_src.go",
			pkgPath: "example.com/internal/core",
			want:    []string{"maprange:10", "maprange:19", "maprange:28"},
		},
		{
			name:    "maprange ignores non-deterministic packages",
			file:    "maprange_src.go",
			pkgPath: "example.com/internal/gpu",
			want:    nil,
		},
		{
			name:    "maprange does not match a merely core-named package",
			file:    "maprange_src.go",
			pkgPath: "example.com/pkg/core",
			want:    nil,
		},
		{
			name:    "clock in a regular package",
			file:    "clock_src.go",
			pkgPath: "example.com/internal/core",
			want:    []string{"clock:9", "clock:11"},
		},
		{
			name:    "clock exempt in infra",
			file:    "clock_src.go",
			pkgPath: "example.com/internal/infra",
			want:    nil,
		},
		{
			name:    "clock exempt in bench",
			file:    "clock_src.go",
			pkgPath: "example.com/internal/bench",
			want:    nil,
		},
		{
			name:    "clock exempt in trace",
			file:    "clock_src.go",
			pkgPath: "example.com/internal/trace",
			want:    nil,
		},
		{
			name:    "rawgo in a regular package",
			file:    "rawgo_src.go",
			pkgPath: "example.com/internal/core",
			want:    []string{"rawgo:7"},
		},
		{
			name:    "rawgo exempt in pool",
			file:    "rawgo_src.go",
			pkgPath: "example.com/internal/pool",
			want:    nil,
		},
		{
			name:    "argmut on exported functions",
			file:    "argmut_src.go",
			pkgPath: "example.com/internal/geom",
			want:    []string{"argmut:14", "argmut:19", "argmut:9"},
		},
		{
			name:    "sharedbuf in a consumer package",
			file:    "sharedbuf_src.go",
			pkgPath: "example.com/internal/core",
			want: []string{"sharedbuf:23", "sharedbuf:28", "sharedbuf:33",
				"sharedbuf:38", "sharedbuf:43", "sharedbuf:48"},
		},
		{
			name:    "sharedbuf exempt in kernels; its waiver goes stale",
			file:    "sharedbuf_src.go",
			pkgPath: "example.com/internal/kernels",
			want:    []string{"waiver:80"},
		},
		{
			name:    "sharedbuf exempt in geocache; its waiver goes stale",
			file:    "sharedbuf_src.go",
			pkgPath: "example.com/internal/geocache",
			want:    []string{"waiver:80"},
		},
		{
			name:    "ctxflow: background/todo, dropped ctx before fan-out",
			file:    "ctxflow_src.go",
			pkgPath: "example.com/internal/core",
			want:    []string{"ctxflow:32", "ctxflow:45", "ctxflow:51", "ctxflow:66", "ctxflow:83"},
		},
		{
			name:    "ctxflow: package main may create root contexts",
			file:    "ctxflow_main_src.go",
			pkgPath: "example.com/cmd/odrc",
			want:    nil,
		},
		{
			name:    "lockdiscipline: guarded fields, branch-aware lock tracking",
			file:    "lockdiscipline_src.go",
			pkgPath: "example.com/internal/geocache",
			want: []string{"lockdiscipline:47", "lockdiscipline:50", "lockdiscipline:58",
				"lockdiscipline:64", "lockdiscipline:75", "lockdiscipline:76",
				"lockdiscipline:95", "lockdiscipline:100", "lockdiscipline:107"},
		},
		{
			name:    "waivers suppress, stale waivers report",
			file:    "waiver_src.go",
			pkgPath: "example.com/internal/core",
			want:    []string{"clock:21", "waiver:15", "waiver:21"},
		},
		{
			name:    "malformed waivers",
			file:    "badwaiver_src.go",
			pkgPath: "example.com/internal/core",
			want:    []string{"waiver:7", "waiver:12", "waiver:17", "waiver:22"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := keysOf(lintFixture(t, tc.pkgPath, tc.file))
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if len(want) == 0 {
				want = nil
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings = %v, want %v", got, want)
			}
		})
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:     token.Position{Filename: "internal/core/x.go", Line: 7, Column: 3},
		Check:   "maprange",
		Message: "bad",
	}
	if got, want := f.String(), "internal/core/x.go:7: [maprange] bad"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
