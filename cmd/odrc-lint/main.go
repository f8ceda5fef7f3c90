// Command odrc-lint enforces the engine's written invariants as
// machine-checked rules: deterministic map iteration, clock discipline
// (host timing through the Profiler/hostPhase), pool-only concurrency, no
// in-place mutation of caller slices by exported functions, cached-buffer
// immutability, context propagation (every context argument derives from
// a ctx parameter or a request's context), and mutex discipline on
// //odrc:guardedby fields. Every check runs one package, and reads one
// function, at a time. See internal/analysis for the checkers and the
// //odrc:allow waiver syntax.
//
// Usage:
//
//	odrc-lint
//
// It takes no flags or arguments. It walks up from the working directory to
// the enclosing go.mod, runs every checker over every non-test package in
// the module, prints findings as "file:line: [check] message", and exits 1
// when any finding (including a stale waiver) survives, 2 on a usage or
// load error. The summary line on stderr reports the elapsed cost so
// check.sh lint time stays visible.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"opendrc/internal/analysis"
)

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: odrc-lint (no flags or arguments)")
		os.Exit(2)
	}

	start := time.Now() //odrc:allow clock — lint CLI self-timing for the check.sh cost line, not engine host work
	findings, err := analysis.Run(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrc-lint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	elapsed := time.Since(start).Round(time.Millisecond) //odrc:allow clock — lint CLI self-timing for the check.sh cost line, not engine host work
	fmt.Fprintf(os.Stderr, "odrc-lint: %d finding(s) in %s\n", len(findings), elapsed)
	if len(findings) > 0 {
		os.Exit(1)
	}
}
