package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/synth"
)

// buildWithUART builds the binary into a temporary directory and writes the
// uart design beside it.
func buildWithUART(t *testing.T) (dir, bin, gds string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "odrc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	p, err := synth.Design("uart")
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := p.Generate()
	gds = filepath.Join(dir, "uart.gds")
	if err := gdsii.WriteFile(gds, lib); err != nil {
		t.Fatal(err)
	}
	return dir, bin, gds
}

// TestExitCodes runs the built binary (go run would mask the program's exit
// code with its own) through the exit-code taxonomy of the package comment,
// and checks that -canon reports the same verdict in both modes.
func TestExitCodes(t *testing.T) {
	dir, bin, gds := buildWithUART(t)
	// A deck file holding only a comment is an empty deck: an empty report
	// in either mode.
	emptyDeck := filepath.Join(dir, "empty.deck")
	if err := os.WriteFile(emptyDeck, []byte("# no rules\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (int, []byte) {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), out
		} else if err != nil {
			t.Fatalf("odrc %v: %v", args, err)
		}
		return 0, out
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, exitUsage},
		{[]string{"-no-geocache", gds}, exitUsage},
		{[]string{"-mode", "bogus", gds}, exitUsage},
		{[]string{filepath.Join(dir, "missing.gds")}, exitError},
		{[]string{"-timeout", "1ns", gds}, exitTimeout},
		{[]string{"-mode", "par", "-max-flatten", "1", gds}, exitDegraded},
		{[]string{gds}, exitOK},
		{[]string{"-mode", "par", "-deck", emptyDeck, gds}, exitOK},
	} {
		if got, _ := run(c.args...); got != c.want {
			t.Errorf("odrc %v: exit %d, want %d", c.args, got, c.want)
		}
	}

	// The canonical form names the mode, and only the sequential mode knows
	// the definition cell of a violation; everything else is the verdict.
	type verdict struct {
		Degraded   bool              `json:"degraded"`
		Failures   []json.RawMessage `json:"failures"`
		Violations []struct {
			Rule               string
			Kind               string
			Layer              int16
			XLo, YLo, XHi, YHi int64
			Dist               int64
			Corner             bool
		} `json:"violations"`
		CountByRule map[string]int `json:"count_by_rule"`
	}
	var verdicts [2]verdict
	for i, mode := range []string{"seq", "par"} {
		code, out := run("-mode", mode, "-canon", gds)
		if code != exitOK {
			t.Fatalf("odrc -mode %s -canon: exit %d", mode, code)
		}
		if err := json.Unmarshal(out, &verdicts[i]); err != nil {
			t.Fatalf("odrc -mode %s -canon: %v", mode, err)
		}
	}
	if len(verdicts[0].Violations) == 0 {
		t.Fatal("uart reports no violations; the mode comparison is vacuous")
	}
	if !reflect.DeepEqual(verdicts[0], verdicts[1]) {
		t.Errorf("-canon verdicts differ: seq %d violations, par %d",
			len(verdicts[0].Violations), len(verdicts[1].Violations))
	}
}

// TestStatsHostLine: -stats prints one host line, the heap at exit and the
// geometry cache's bytes by record kind; a parallel run holds packed edges
// and a sequential one none. -json and -canon print no such line.
func TestStatsHostLine(t *testing.T) {
	_, bin, gds := buildWithUART(t)
	line := regexp.MustCompile(`^host: heap (\d+\.\d) MB; geocache (\d+\.\d) MB ` +
		`\(flatten (\d+\.\d), boxes (\d+\.\d), edges (\d+\.\d), tables (\d+\.\d), rows (\d+\.\d)\)$`)
	for _, mode := range []string{"seq", "par"} {
		out, err := exec.Command(bin, "-mode", mode, "-stats", gds).Output()
		if err != nil {
			t.Fatalf("odrc -mode %s -stats: %v", mode, err)
		}
		var hosts [][]string
		for _, l := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(l, "host:") {
				m := line.FindStringSubmatch(l)
				if m == nil {
					t.Fatalf("-mode %s: malformed host line %q", mode, l)
				}
				hosts = append(hosts, m)
			}
		}
		if len(hosts) != 1 {
			t.Fatalf("-mode %s: %d host lines, want 1", mode, len(hosts))
		}
		if heap, _ := strconv.ParseFloat(hosts[0][1], 64); heap <= 0 {
			t.Errorf("-mode %s: heap %v MB at exit", mode, heap)
		}
		if edges := hosts[0][5]; (edges != "0.0") != (mode == "par") {
			t.Errorf("-mode %s: packed edges hold %s MB", mode, edges)
		}
		for _, flag := range []string{"-json", "-canon"} {
			out, err := exec.Command(bin, "-mode", mode, "-stats", flag, gds).Output()
			if err != nil {
				t.Fatalf("odrc -mode %s -stats %s: %v", mode, flag, err)
			}
			if strings.Contains(string(out), "host:") {
				t.Errorf("odrc -mode %s %s prints a host line", mode, flag)
			}
		}
	}
}
