// Command odrc-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	odrc-bench -table 1|2 [-scale f]     reproduce Table I / Table II
//	odrc-bench -fig 3                    print the sweepline trace (Fig. 3)
//	odrc-bench -fig 4 [-scale f]         runtime breakdown (Fig. 4)
//	odrc-bench -ablation [-scale f]      design-choice ablations
//	odrc-bench -fairness [-fair-checks n] [-out f.json] [-gate]
//	                                     cross-tenant fair scheduling: light-
//	                                     tenant p50/p95 under heavy co-tenant
//	                                     load, FIFO baseline vs weighted fair;
//	                                     every row cross-checks the light
//	                                     reports against an unloaded solo run;
//	                                     -gate exits non-zero when a row
//	                                     regresses
//	odrc-bench -trace f.json [-trace-design d] [-trace-mode seq|par]
//	                                     run the full deck once with the
//	                                     timeline recorder attached and write
//	                                     the Chrome-trace/Perfetto JSON
//	odrc-bench -validate-trace f.json    structural check of an exported trace
//	odrc-bench -digests [-out f.json] [-gate]
//	                                     canonical-report digest matrix: one
//	                                     row per (design, scale, mode,
//	                                     workers); -out writes it, -gate
//	                                     compares it with BENCH_digests.json
//	                                     and names the first differing rule
//
// Every experiment accepts -timeout d; an expired deadline aborts between
// checks and exits with code 3. Exit codes follow cmd/odrc: 1 error, 2 usage
// (no experiment selected, or a flag value outside its range), 3 timeout.
//
// Time semantics: CPU checkers report measured wall time divided by the
// host calibration constant; GPU checkers report modeled CPU+GPU time from
// the simulated device (see DESIGN.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"opendrc/internal/bench"
	"opendrc/internal/core"
	"opendrc/internal/trace"
)

// Exit codes, the taxonomy of cmd/odrc.
const (
	exitError   = 1
	exitUsage   = 2
	exitTimeout = 3
)

// usageError is a command-line mistake: main prints it with the flag summary
// and exits exitUsage.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	err := run()
	var usage usageError
	switch {
	case err == nil:
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, "odrc-bench:", err)
		flag.Usage()
		os.Exit(exitUsage)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "odrc-bench: timeout:", err)
		os.Exit(exitTimeout)
	default:
		fmt.Fprintln(os.Stderr, "odrc-bench:", err)
		os.Exit(exitError)
	}
}

func run() error {
	table := flag.Int("table", 0, "reproduce table 1 (intra-polygon) or 2 (inter-polygon)")
	fig := flag.Int("fig", 0, "reproduce figure 3 (sweepline trace) or 4 (runtime breakdown)")
	ablation := flag.Bool("ablation", false, "run the design-choice ablations")
	fairness := flag.Bool("fairness", false, "run the cross-tenant fair-scheduling experiment (light tenant latency under heavy co-tenant load, FIFO vs weighted fair)")
	fairChecks := flag.Int("fair-checks", 40, "light-tenant checks measured per -fairness row")
	traceOut := flag.String("trace", "", "run the full deck once with tracing and write the Chrome-trace JSON to this file")
	traceDesign := flag.String("trace-design", "aes", "design for the -trace run")
	traceMode := flag.String("trace-mode", "par", "engine mode for the -trace run: seq or par")
	validateTrace := flag.String("validate-trace", "", "validate the structure of an exported trace file and print its summary")
	workers := flag.Int("workers", 0, "worker-pool size for -trace (0 = GOMAXPROCS)")
	digests := flag.Bool("digests", false, "run the canonical-report digest matrix (every design in both modes at several worker counts)")
	out := flag.String("out", "", "also write the -fairness report or the -digests matrix as JSON to this file")
	gate := flag.Bool("gate", false, "for -fairness: exit non-zero when a row's reports differ from the solo run, the co-tenant never saturated, or the p95 improvement is under 2x; for -digests: exit non-zero when the matrix differs from "+digestsFile)
	scale := flag.Float64("scale", 1, "design scale factor (1 = full synthetic size)")
	timeout := flag.Duration("timeout", 0, "abort the experiment after this duration (0 = no deadline); exits 3 on expiry")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch {
	case *validateTrace != "":
		return runValidateTrace(*validateTrace)
	case *traceOut != "":
		return runTrace(ctx, *traceOut, *traceDesign, *traceMode, *scale, *workers)
	case *table == 1:
		return runTable(ctx, "Table I — intra-polygon checks (width, area)", bench.TableIRules(), *scale)
	case *table == 2:
		return runTable(ctx, "Table II — inter-polygon checks (spacing, enclosure)", bench.TableIIRules(), *scale)
	case *table != 0:
		return usageError(fmt.Sprintf("-table %d: want 1 or 2", *table))
	case *fig == 3:
		return bench.Fig3(os.Stdout)
	case *fig == 4:
		lts, err := bench.Layouts(*scale)
		if err != nil {
			return err
		}
		rows, err := bench.Fig4Context(ctx, lts)
		if err != nil {
			return err
		}
		bench.WriteFig4(os.Stdout, rows)
		return nil
	case *fig != 0:
		return usageError(fmt.Sprintf("-fig %d: want 3 or 4", *fig))
	case *ablation:
		_, err := bench.AblationsContext(ctx, os.Stdout, *scale)
		return err
	case *fairness:
		rep, err := bench.FairnessContext(ctx, *fairChecks, *scale)
		if err != nil {
			return err
		}
		return emit(rep, *out, *gate)
	case *digests:
		return runDigests(ctx, *out, *gate)
	}
	return usageError("no experiment selected")
}

// writeFile creates path, fills it with write and closes it; a failed Close
// is a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emit prints the report's table, writes its JSON to outPath when one is
// given, and then applies the gate when asked — in that order, so a failing
// gate still leaves the artifact for inspection.
func emit(rep *bench.FairReport, outPath string, gate bool) error {
	if _, err := rep.WriteTo(os.Stdout); err != nil {
		return err
	}
	if outPath != "" {
		if err := writeFile(outPath, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if gate {
		return rep.Gate()
	}
	return nil
}

// digestsFile is the committed digest matrix -digests -gate compares with.
const digestsFile = "BENCH_digests.json"

// runDigests computes the digest matrix, writes it to outPath when one is
// given, and with gate compares it with the committed digestsFile.
func runDigests(ctx context.Context, outPath string, gate bool) error {
	got, err := bench.DigestsContext(ctx)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := writeFile(outPath, func(w io.Writer) error { return bench.WriteDigests(w, got) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d digest rows to %s\n", len(got), outPath)
	}
	if !gate {
		return nil
	}
	f, err := os.Open(digestsFile)
	if err != nil {
		return err
	}
	defer f.Close()
	want, err := bench.ReadDigests(f)
	if err != nil {
		return err
	}
	if err := bench.CompareDigests(want, got); err != nil {
		return err
	}
	fmt.Printf("%d digest rows equal %s\n", len(got), digestsFile)
	return nil
}

// runTrace runs the full deck once on one design with the timeline recorder
// attached and writes the exported Chrome-trace/Perfetto JSON.
func runTrace(ctx context.Context, outPath, design, mode string, scale float64, workers int) error {
	m := core.Sequential
	switch mode {
	case "seq":
	case "par":
		m = core.Parallel
	default:
		return usageError(fmt.Sprintf("-trace-mode %q: want seq or par", mode))
	}
	rec := trace.New()
	rep, err := bench.TraceRunContext(ctx, design, m, scale, workers, rec)
	if err != nil {
		return err
	}
	if err := writeFile(outPath, rec.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("%s %s (scale %g): %d violations in %v; %d trace events -> %s\n",
		design, mode, scale, len(rep.Violations), rep.HostWall.Round(time.Microsecond), rec.Len(), outPath)
	if rep.Stats.Trace != nil {
		fmt.Printf("  %s\n", rep.Stats.Trace)
	}
	return nil
}

// runValidateTrace structurally checks an exported trace file.
func runValidateTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := trace.Validate(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid; %d events, %d flows, processes %v\n",
		path, info.Events, info.Flows, info.Processes)
	return nil
}

func runTable(ctx context.Context, title string, rules []string, scale float64) error {
	lts, err := bench.Layouts(scale)
	if err != nil {
		return err
	}
	tbl, err := bench.RunContext(ctx, fmt.Sprintf("%s (scale %g)", title, scale), lts, rules)
	if err != nil {
		return err
	}
	_, err = tbl.WriteTo(os.Stdout)
	return err
}
