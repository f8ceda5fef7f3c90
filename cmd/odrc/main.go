// Command odrc runs design rule checks on a GDSII layout.
//
// Usage:
//
//	odrc [-mode seq|par] [-workers n] [-timeout d] [-rules deck] [-rule id[,id...]] [-v] [-stats] file.gds
//
// The default rule deck is the ASAP7-like evaluation deck (see
// internal/synth.Deck); -rule restricts it to specific rule IDs. Violations
// print one per line as: rule layer box distance [cell].
//
// Exit codes:
//
//	0  check completed, report is complete
//	1  error (bad input, I/O failure, invalid rule deck)
//	2  usage error
//	3  the -timeout deadline expired or the run was cancelled
//	4  check completed but the report is degraded (one or more rules
//	   failed in isolation; their partial results were discarded)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"

	"opendrc"
	"opendrc/internal/core"
	"opendrc/internal/geocache"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// Exit codes; see the package comment.
const (
	exitOK       = 0
	exitError    = 1
	exitUsage    = 2
	exitTimeout  = 3
	exitDegraded = 4
)

func main() {
	os.Exit(run())
}

func run() int {
	mode := flag.String("mode", "seq", "execution mode: seq (hierarchical CPU) or par (simulated-GPU rows)")
	workers := flag.Int("workers", 0, "host worker-pool size for fan-out phases (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the check after this duration (0 = no deadline); exits 3 on expiry")
	ruleIDs := flag.String("rule", "", "comma-separated rule IDs from the standard deck (default: all)")
	deckFile := flag.String("deck", "", "rule deck file (overrides the built-in deck; see internal/rules.ParseDeck)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	canonOut := flag.Bool("canon", false, "emit the canonical report JSON (the timing-free form odrcd serves; for diffing service responses against batch runs)")
	verbose := flag.Bool("v", false, "print every violation (default: per-rule counts only)")
	stats := flag.Bool("stats", false, "print scheduling statistics and phase breakdown")
	dedup := flag.Bool("dedup", true, "merge identical violation markers")
	maxFlatten := flag.Int64("max-flatten", 0, "fail a rule that would flatten more than this many polygons (0 = unlimited; -mode par only: seq never flattens)")
	maxEdges := flag.Int64("max-edges", 0, "fail a rule that would pack more than this many device edges (0 = unlimited)")
	maxDeviceBytes := flag.Int64("max-device-bytes", 0, "simulated device memory pool limit in bytes (0 = unlimited)")
	traceOut := flag.String("trace", "", "write a Chrome-trace/Perfetto JSON timeline of the run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: odrc [flags] file.gds\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return exitUsage
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fail := func(err error) int {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "odrc: timeout:", err)
			return exitTimeout
		}
		fmt.Fprintln(os.Stderr, "odrc:", err)
		return exitError
	}

	// The tracer exists before the file is read, so the timeline starts with
	// the ledger's first two stages.
	var tracer *opendrc.Tracer
	if *traceOut != "" {
		tracer = opendrc.NewTracer()
		tracer.SetMeta("source", flag.Arg(0))
	}
	db, ingest, err := core.LoadGDS(flag.Arg(0), tracer)
	if err != nil {
		return fail(err)
	}
	for _, w := range db.Warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}

	var opts []opendrc.Option
	switch *mode {
	case "seq":
	case "par":
		opts = append(opts, opendrc.WithMode(opendrc.Parallel))
	default:
		fmt.Fprintf(os.Stderr, "odrc: unknown mode %q (want seq or par)\n", *mode)
		return exitUsage
	}
	opts = append(opts,
		opendrc.WithWorkers(*workers),
		opendrc.WithBudgets(opendrc.Budgets{
			MaxFlattenPolys: *maxFlatten,
			MaxPackedEdges:  *maxEdges,
			MaxDeviceBytes:  *maxDeviceBytes,
		}))
	if tracer != nil {
		opts = append(opts, opendrc.WithTrace(tracer))
	}
	eng := opendrc.NewEngine(opts...)

	deck := synth.Deck()
	if *deckFile != "" {
		f, err := os.Open(*deckFile)
		if err != nil {
			return fail(err)
		}
		deck, err = opendrc.ParseDeck(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	}
	if *ruleIDs != "" {
		var picked []opendrc.Rule
		for _, id := range strings.Split(*ruleIDs, ",") {
			r, err := synth.RuleByID(strings.TrimSpace(id))
			if err != nil {
				return fail(err)
			}
			picked = append(picked, r)
		}
		deck = picked
	}
	if err := eng.AddRules(deck...); err != nil {
		return fail(err)
	}

	rep, err := eng.CheckContext(ctx, db)
	if err != nil {
		return fail(err)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s\n", tracer.Len(), *traceOut)
	}
	vs := rep.Violations
	if *dedup {
		vs = opendrc.Dedup(vs)
	}
	code := exitOK
	if rep.Degraded {
		code = exitDegraded
	}
	if *canonOut {
		rep.Violations = vs
		if err := rep.WriteCanonicalJSON(os.Stdout); err != nil {
			return fail(err)
		}
		return code
	}
	if *jsonOut {
		rep.Violations = vs
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return fail(err)
		}
		return code
	}

	fmt.Printf("%s: %d cells, top %q; %d violations in %v (%s mode)\n",
		flag.Arg(0), len(db.Cells), db.Top.Name, len(vs), rep.HostWall.Round(1e3), rep.Mode)
	if rep.Degraded {
		fmt.Printf("DEGRADED: %d rule(s) failed; their results are excluded\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Printf("  FAILED %-12s %s\n", f.Rule, f.Err)
		}
	}
	counts := map[string]int{}
	for _, v := range vs {
		counts[v.Rule]++
	}
	for _, r := range eng.Deck() {
		fmt.Printf("  %-12s %6d\n", r.ID, counts[r.ID])
	}
	if *verbose {
		for _, v := range vs {
			cell := v.Cell
			if cell == "" {
				cell = "-"
			}
			fmt.Printf("%-12s %-4s %v d=%d cell=%s\n",
				v.Rule, layout.LayerName(v.Layer), v.Marker.Box, v.Marker.Dist, cell)
		}
	}
	if *stats {
		fmt.Printf("ingest:read  %v (%d bytes, %d structures)\n", ingest.Read.Round(1e3), ingest.Bytes, ingest.Structures)
		fmt.Printf("ingest:build %v (%d cells)\n", ingest.Build.Round(1e3), ingest.Cells)
		fmt.Printf("stats: %+v\n", rep.Stats)
		rep.Profile.WriteTo(os.Stdout)
		if rep.Device != nil {
			fmt.Printf("modeled CPU+GPU time: %v (device busy %v)\n",
				rep.Modeled.Round(1e3), rep.Device.DeviceBusy().Round(1e3))
		}
		if rep.Stats.Trace != nil {
			fmt.Printf("trace: %s\n", rep.Stats.Trace)
		}
		fmt.Println(hostLine(rep.HostBytes))
	}
	return code
}

// hostLine renders the host memory at exit: the Go heap's object bytes (read
// with runtime/metrics) and what of it the geometry cache's records hold, by
// kind. A layer's flattened vertices are its packed buffer's, so they count
// under edges; flatten is the instance records, which only
// geocache.Cache.Flatten builds, so an engine check prints 0.0 (a patch drops
// a layer that holds them).
func hostLine(r geocache.Resident) string {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	var heap uint64
	if sample[0].Value.Kind() == metrics.KindUint64 {
		heap = sample[0].Value.Uint64()
	}
	mb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1e6) }
	return fmt.Sprintf("host: heap %s MB; geocache %s MB (flatten %s, boxes %s, edges %s, tables %s, rows %s)",
		mb(int64(heap)), mb(r.Total()), mb(r.Flatten), mb(r.Boxes), mb(r.Edges), mb(r.Tables), mb(r.Rows))
}
