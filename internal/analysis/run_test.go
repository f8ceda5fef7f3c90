package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a small two-package module with known rawgo
// findings: internal/a/a.go lines 7 and 8, internal/b/b.go lines 7 and 8,
// plus a waived line 9 in b.
func writeTempModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	src := `package %s

func helper() {}

// Fan-out outside the pool: raw go statements the rawgo checker flags.
func Spawn() {
	go helper()
	go helper()
	go helper() //odrc:allow rawgo — fixture: intentionally unpooled
}
`
	files := map[string]string{
		"go.mod":          "module example.com/m\n\ngo 1.22\n",
		"internal/a/a.go": fmt.Sprintf(src, "a"),
		"internal/b/b.go": fmt.Sprintf(src, "b"),
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestRunDeterministicOrder pins the cross-package output contract: Run,
// started from a directory inside the module, finds the module root, applies
// each package's waivers, and returns findings sorted by (file, line,
// column, check) with root-relative filenames.
func TestRunDeterministicOrder(t *testing.T) {
	root := writeTempModule(t)
	want := []string{
		filepath.Join("internal", "a", "a.go") + ":7 rawgo",
		filepath.Join("internal", "a", "a.go") + ":8 rawgo",
		filepath.Join("internal", "b", "b.go") + ":7 rawgo",
		filepath.Join("internal", "b", "b.go") + ":8 rawgo",
	}
	findings, err := Run(filepath.Join(root, "internal", "b"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d %s", f.Pos.Filename, f.Pos.Line, f.Check))
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("findings = %v, want %v", got, want)
	}
}
