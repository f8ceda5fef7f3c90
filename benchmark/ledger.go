package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/gdsii"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// The batch ledger: what one `odrc` run does, stage by stage, timed by
// calling each layer's public functions from here in the order cmd/odrc
// calls them. Spans nest under one root and must add up to it
// (ledger.batch_coverage); what the real process pays on top — exec, runtime
// start, a cold heap — is ledger.exec_overhead_ms.

// metrics is a per-layer result set, keyed by the names BENCHMARK.json
// declares.
type metrics map[string]float64

func coreMode(mode string) core.Mode {
	if mode == "par" {
		return core.Parallel
	}
	return core.Sequential
}

// batchLedger runs the in-process equivalent of `odrc -json -mode <mode>
// <gds>`, records one span per stage, checks the result against the oracle,
// and returns the built layout for the standalone probes.
func batchLedger(ctx context.Context, in *batchInput, mode string, log *spanLog, op int, m metrics) (*layout.Layout, error) {
	var (
		lib *gdsii.Library
		lo  *layout.Layout
		rep *core.Report
		buf bytes.Buffer
		err error
	)
	eng := core.New(core.Options{Mode: coreMode(mode)})
	if err := eng.AddRules(synth.Deck()...); err != nil {
		return nil, err
	}
	root := log.begin("odrc.inprocess", -1, op)
	dRead := log.time("gdsii.read", root, op, func() { lib, err = gdsii.ReadFile(in.d.gds) })
	if err != nil {
		return nil, err
	}
	dBuild := log.time("layout.build", root, op, func() { lo, err = layout.FromLibrary(lib) })
	if err != nil {
		return nil, err
	}
	dCheck := log.time("core.check", root, op, func() { rep, err = eng.CheckContext(ctx, lo) })
	if err != nil {
		return nil, err
	}
	dDedup := log.time("core.dedup", root, op, func() { rep.Violations = core.DedupViolations(rep.Violations) })
	dSer := log.time("core.serialise", root, op, func() { err = rep.WriteJSON(&buf) })
	if err != nil {
		return nil, err
	}
	log.end(root)

	var got report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		return nil, err
	}
	if rep.Degraded || !bytes.Equal(got.Violations, in.want.Violations) {
		return nil, fmt.Errorf("in-process %s check differs from the oracle", mode)
	}

	st, err := os.Stat(in.d.gds)
	if err != nil {
		return nil, err
	}
	m["gdsii.read_ms"] = ms(dRead)
	m["gdsii.read_mb_per_s"] = float64(st.Size()) / 1e6 / dRead.Seconds()
	m["layout.build_ms"] = ms(dBuild)
	m["core.check_ms"] = ms(dCheck)
	m["core.dedup_ms"] = ms(dDedup)
	m["core.serialise_ms"] = ms(dSer)
	m["core.report_bytes"] = float64(buf.Len())
	m["ledger.inprocess_ms"] = log.durUS(root) / 1000
	m["ledger.batch_coverage"] = 1 - log.selfUS(root)/log.durUS(root)
	reportMetrics(rep, m)

	// What in-program tracing costs today: the same check again on the now
	// warm heap, without and with the engine's own timeline recorder (the
	// ledger's check above ran cold, like a fresh process, so it is not the
	// baseline here).
	var warm [2]time.Duration
	for i, rec := range []*trace.Recorder{nil, trace.New()} {
		eng := core.New(core.Options{Mode: coreMode(mode), Trace: rec})
		if err := eng.AddRules(synth.Deck()...); err != nil {
			return nil, err
		}
		warm[i] = log.time("core.check(warm)", -1, op+1+i, func() { _, err = eng.CheckContext(ctx, lo) })
		if err != nil {
			return nil, err
		}
	}
	m["trace.overhead_frac"] = relDiff(float64(warm[1]), float64(warm[0]))
	return lo, nil
}

// profilePhases maps the profiler phases worth a ledger line (the top four
// of each mode on the benchmark inputs) to metric names.
var profilePhases = map[string]string{
	"enclosure:global-residue": "core.phase.enclosure_global_residue_ms",
	"spacing:sweepline":        "core.phase.spacing_sweepline_ms",
	"spacing:edge-checks":      "core.phase.spacing_edge_checks_ms",
	"enclosure:cell-checks":    "core.phase.enclosure_cell_checks_ms",
	"par:flatten":              "core.phase.par_flatten_ms",
	"par:partition":            "core.phase.par_partition_ms",
	"par:instance-enumeration": "core.phase.par_instance_enumeration_ms",
	"par:local-pruning":        "core.phase.par_local_pruning_ms",
}

// reportMetrics reads what the engine already returns about a run — exact
// work counts, the modeled device timeline, the host profiler — without
// modifying any of it. The counts repeat exactly for a fixed input, so a
// change meant only to speed the simulator up must leave them identical.
func reportMetrics(rep *core.Report, m metrics) {
	s := rep.Stats
	m["core.defs_checked"] = float64(s.DefsChecked)
	m["core.instances_emitted"] = float64(s.InstancesEmitted)
	m["core.pairs_considered"] = float64(s.PairsConsidered)
	m["core.pairs_checked"] = float64(s.PairsChecked)
	m["core.rows"] = float64(s.Rows)
	m["gpu.launches"] = float64(s.KernelLaunches)
	m["gpu.bytes_copied"] = float64(s.BytesCopied)
	m["gpu.uploads"] = float64(s.DeviceUploads)
	m["gpu.reuses"] = float64(s.DeviceReuses)
	m["gpu.delta_uploads"] = float64(s.DeviceDeltaUploads)
	if dev := rep.Device; dev != nil {
		_, peak, _, _ := dev.PoolStats()
		busy := dev.DeviceBusy()
		m["gpu.pool_peak_bytes"] = float64(peak)
		m["gpu.device_busy_ms"] = ms(busy)
		if rep.Modeled > 0 {
			m["gpu.busy_frac"] = float64(busy) / float64(rep.Modeled)
		}
	}
	for phase, name := range profilePhases {
		m[name] = ms(rep.Profile.Get(phase))
	}
	if rep.HostWall > 0 {
		m["core.profile_coverage"] = float64(rep.Profile.Total()) / float64(rep.HostWall)
	}
}
