package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExitCodes runs the built binary (go run would mask the program's exit
// code with its own): every usage error exits 2 and an expired -timeout
// exits 3, the taxonomy of cmd/odrc.
func TestExitCodes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "odrc-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, exitUsage},
		{[]string{"-table", "3"}, exitUsage},
		{[]string{"-fig", "5"}, exitUsage},
		{[]string{"-trace", filepath.Join(t.TempDir(), "t.json"), "-trace-mode", "bogus"}, exitUsage},
		{[]string{"-no-such-flag"}, exitUsage},
		{[]string{"-validate-trace", filepath.Join(t.TempDir(), "missing.json")}, exitError},
		{[]string{"-ablation", "-scale", "0.05", "-timeout", "1ns"}, exitTimeout},
		{[]string{"-table", "1", "-scale", "0.05", "-timeout", "1ns"}, exitTimeout},
		{[]string{"-fig", "3"}, 0},
	} {
		got := 0
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			got = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("odrc-bench %v: %v", c.args, err)
		}
		if got != c.want {
			t.Errorf("odrc-bench %v: exit %d, want %d\n%s", c.args, got, c.want, out)
		}
	}
}
