package main

import (
	"context"
	"fmt"
)

// The batch workloads: back-to-back `odrc -json -mode <m> ethmac@4.gds`
// processes, each timed exec -> exit and checked against the set-up oracle.
//
//   - batch_seq: parse + hierarchy build + the sequential engine (core
//     sequential, sweep, checks) do nearly all the work; geocache pack,
//     kernels and gpu do none, so a device-side change must not move it.
//   - batch_par: cold flatten/pack (geocache), partition, the kernels' host
//     simulation and the gpu timeline dominate; parse/build is a few
//     percent. The paper's headline mode, and the one workload whose modeled
//     time is device time.

// batchInput is a batch workload's set-up product.
type batchInput struct {
	d     *design
	want  *report        // `odrc -canon` oracle for the workload's mode
	cross map[string]int // the other mode's per-rule counts (par only)
}

// batchSetup generates the input and computes the oracle. batch_par also
// runs the sequential oracle, so every measured run is checked for seq/par
// agreement on deduplicated per-rule counts; batch_seq skips the five-second
// par oracle to keep set-up proportionate.
func (e *env) batchSetup(scale float64, mode string) (*batchInput, error) {
	d, err := e.generate(scale)
	if err != nil {
		return nil, err
	}
	_, want, err := e.oracle(d.gds, mode, "")
	if err != nil {
		return nil, err
	}
	in := &batchInput{d: d, want: want}
	if mode == "par" {
		_, seq, err := e.oracle(d.gds, "seq", "")
		if err != nil {
			return nil, err
		}
		if !sameCounts(want.CountByRule, seq.CountByRule) {
			return nil, fmt.Errorf("oracles disagree: seq and par per-rule counts differ")
		}
		in.cross = seq.CountByRule
	}
	return in, nil
}

// batchRun is the outcome of a series of odrc processes.
type batchRun struct {
	tally
	wall, modeled, rss samples
}

// one execs odrc once, verifies it, and records its samples.
func (r *batchRun) one(e *env, in *batchInput, mode string, log *spanLog, op int) error {
	id := log.begin("odrc.exec", -1, op)
	res, err := e.odrc("-json", "-mode", mode, in.d.gds)
	log.end(id)
	if err != nil {
		return err
	}
	got, verr := checkBatchOutput(res, in.want, in.cross)
	if !r.count(verr) {
		return nil
	}
	r.wall.add(res.wall)
	r.modeled = append(r.modeled, float64(got.ModeledUS)/1000)
	r.rss = append(r.rss, res.maxRSSMB)
	return nil
}

func runBatch(e *env, c config, mode string) (*outcome, error) {
	scale := batchScale
	if c.quick {
		scale = quickScale
	}
	in, setupS, err := repeatSetup(c.setups(), func() (*batchInput, error) { return e.batchSetup(scale, mode) }, nil)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceBatch(e, c, mode, in)
	}
	return measureBatch(e, c, mode, in, setupS)
}

// measureBatch is the untraced pass: odrc processes back to back for the
// run's measuring time.
func measureBatch(e *env, c config, mode string, in *batchInput, setupS float64) (*outcome, error) {
	var r batchRun
	start := now()
	for c.fits(start, r.attempted, r.wall) {
		if err := r.one(e, in, mode, nil, r.attempted); err != nil {
			return nil, err
		}
	}
	wall := since(start)
	return &outcome{tally: r.tally, metrics: metrics{
		"setup_s":        setupS,
		"op_p50_ms":      median(r.wall),
		"ops_per_s":      float64(len(r.wall)) / wall.Seconds(),
		"modeled_p50_ms": median(r.modeled),
		"peak_rss_mb":    median(r.rss),
	}}, nil
}

// traceBatch is the traced pass of a batch workload: a few exec'd runs (half
// without harness spans, half with — the difference is the harness's own
// overhead), the in-process ledger, and the standalone probes of the layers
// this mode exercises.
func traceBatch(e *env, c config, mode string, in *batchInput) (*outcome, error) {
	m := metrics{
		"synth.generate_ms": ms(in.d.genD),
		"gdsii.write_ms":    ms(in.d.writeD),
	}
	half := 2
	if c.quick {
		half = 1
	}
	var plain, traced batchRun
	for i := 0; i < 2*half; i++ {
		r, log := &plain, (*spanLog)(nil)
		if i >= half {
			r, log = &traced, c.log
		}
		if err := r.one(e, in, mode, log, i); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	lo, err := batchLedger(ctx, in, mode, c.log, 2*half, m)
	if err != nil {
		return nil, err
	}
	if len(plain.wall) > 0 && len(traced.wall) > 0 {
		m["ledger.harness_overhead_frac"] = relDiff(median(traced.wall), median(plain.wall))
		m["ledger.exec_overhead_ms"] = median(append(plain.wall, traced.wall...)) - m["ledger.inprocess_ms"]
	}
	if mode == "par" {
		err = parProbes(ctx, lo, m)
	} else {
		err = seqProbes(lo, m)
	}
	if err != nil {
		return nil, err
	}
	t := plain.tally
	t.merge(traced.tally)
	t.attempted++ // the in-process check, verified against the oracle above
	return &outcome{tally: t, metrics: m}, nil
}
