package analysis

import (
	"go/token"
	"testing"
)

func TestSplitWaiver(t *testing.T) {
	cases := []struct {
		in            string
		check, reason string
		ok            bool
	}{
		{"clock — measured wall feeds HostAdvance", "clock", "measured wall feeds HostAdvance", true},
		{"maprange -- double dash works too", "maprange", "double dash works too", true},
		{"clock —", "clock", "", true}, // empty reason is rejected later
		{"clock no dash at all", "", "", false},
		{"", "", "", false},
	}
	for _, tc := range cases {
		check, reason, ok := splitWaiver(tc.in)
		if check != tc.check || reason != tc.reason || ok != tc.ok {
			t.Errorf("splitWaiver(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.in, check, reason, ok, tc.check, tc.reason, tc.ok)
		}
	}
}

func TestPkgIs(t *testing.T) {
	if !pkgIs("opendrc/internal/pool", "internal/pool") {
		t.Error("module-qualified path should match")
	}
	if !pkgIs("internal/pool", "internal/pool") {
		t.Error("bare path should match")
	}
	if pkgIs("opendrc/internal/poolparty", "internal/pool") {
		t.Error("prefix of another package name should not match")
	}
	if pkgIs("opendrc/pool", "internal/pool") {
		t.Error("non-internal path should not match")
	}
}

func TestDeterministicPkgs(t *testing.T) {
	for _, p := range []string{"m/internal/core", "m/internal/layout", "m/internal/rules"} {
		if !isDeterministicPkg(p) {
			t.Errorf("%s should be deterministic", p)
		}
	}
	for _, p := range []string{"m/internal/gpu", "m/internal/infra", "m/cmd/odrc", "m"} {
		if isDeterministicPkg(p) {
			t.Errorf("%s should not be deterministic", p)
		}
	}
}

func TestSortFindingsOrder(t *testing.T) {
	fs := []Finding{
		{Pos: token.Position{Filename: "b.go", Line: 1}, Check: "rawgo"},
		{Pos: token.Position{Filename: "a.go", Line: 9}, Check: "clock"},
		{Pos: token.Position{Filename: "a.go", Line: 2}, Check: "maprange"},
		{Pos: token.Position{Filename: "a.go", Line: 2}, Check: "clock"},
	}
	sortFindings(fs)
	want := []string{"a.go:2 clock", "a.go:2 maprange", "a.go:9 clock", "b.go:1 rawgo"}
	for i, f := range fs {
		got := f.Pos.Filename + ":" + itoa(f.Pos.Line) + " " + f.Check
		if got != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, got, want[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestRepoIsClean runs the full linter over this repository: the tree must
// stay free of findings and stale waivers (check.sh enforces the same gate).
func TestRepoIsClean(t *testing.T) {
	findings, err := Run(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
