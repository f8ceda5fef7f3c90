package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"opendrc/internal/gdsii"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// Input sizes. The batch workloads check ethmac at scale 4 (about 105 k cell
// instances, 6.3 MB of GDSII) and the service workloads hold ethmac at scale
// 2.5 (about 42 k instances): past the launch-floor regime, where a run is
// seconds and a request is tens to hundreds of milliseconds. When a time cap
// bites, cut repetitions, never these. -quick shrinks both for the smoke
// test only.
const (
	batchScale = 4.0
	serveScale = 2.5
	quickScale = 0.3
)

// design is one generated input: the GDSII file the programs under test
// read, plus the in-memory library for the harness's own use.
type design struct {
	gds    string
	lib    *gdsii.Library
	genD   time.Duration // synth generation
	writeD time.Duration // GDSII serialisation + file write
}

// generate synthesises ethmac at the given scale into the scratch directory.
func (e *env) generate(scale float64) (*design, error) {
	p, err := synth.Design("ethmac")
	if err != nil {
		return nil, err
	}
	d := &design{gds: filepath.Join(e.work, fmt.Sprintf("ethmac-%g.gds", scale))}
	t := now()
	d.lib, _ = p.Scaled(scale).Generate()
	d.genD = since(t)
	t = now()
	if err := gdsii.WriteFile(d.gds, d.lib); err != nil {
		return nil, err
	}
	d.writeD = since(t)
	return d, nil
}

// layerExtents returns the top cell's extent per routing layer: the window
// the seeded edit positions are drawn from.
func (d *design) layerExtents() (map[int]rect, error) {
	lo, err := layout.FromLibrary(d.lib)
	if err != nil {
		return nil, err
	}
	out := map[int]rect{}
	for _, l := range []int{layerM1, layerM2, layerM3} {
		m := lo.Top.LayerMBR(layout.Layer(l))
		out[l] = rect{XLo: m.XLo, YLo: m.YLo, XHi: m.XHi, YHi: m.YHi}
	}
	return out, nil
}

// report is the part of odrc's -json / -canon output (and of an odrcd check
// body) the oracle compares. Violations stays raw: both forms indent the
// list identically, so equal bytes mean equal lists.
type report struct {
	Mode        string          `json:"mode"`
	Degraded    bool            `json:"degraded"`
	Violations  json.RawMessage `json:"violations"`
	CountByRule map[string]int  `json:"count_by_rule"`
	HostWallUS  int64           `json:"host_wall_us"`
	ModeledUS   int64           `json:"modeled_us"`
}

// oracle runs `odrc -canon` once and returns its bytes and parsed form. The
// canonical report is the repository's correctness oracle: byte-identical
// per mode across batch, cold session and warm session.
func (e *env) oracle(gds, mode string, rule string) ([]byte, *report, error) {
	args := []string{"-canon", "-mode", mode}
	if rule != "" {
		args = append(args, "-rule", rule)
	}
	res, err := e.odrc(append(args, gds)...)
	if err != nil {
		return nil, nil, err
	}
	if res.exit != 0 {
		return nil, nil, fmt.Errorf("oracle odrc %v: exit %d: %s", args, res.exit, res.stderr)
	}
	var rep report
	if err := json.Unmarshal(res.stdout, &rep); err != nil {
		return nil, nil, fmt.Errorf("oracle odrc %v: %w", args, err)
	}
	return res.stdout, &rep, nil
}

// sameCounts reports whether two per-rule violation counts agree, treating
// an absent rule as zero.
func sameCounts(a, b map[string]int) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// checkBatchOutput verifies one `odrc -json` run against the set-up oracle
// for its mode and, when given, the other mode's per-rule counts.
func checkBatchOutput(res procResult, want *report, cross map[string]int) (*report, error) {
	if res.exit != 0 {
		return nil, fmt.Errorf("odrc exit %d: %s", res.exit, res.stderr)
	}
	var got report
	if err := json.Unmarshal(res.stdout, &got); err != nil {
		return nil, fmt.Errorf("odrc -json output: %w", err)
	}
	if got.Degraded {
		return nil, fmt.Errorf("odrc report degraded")
	}
	if !bytes.Equal(got.Violations, want.Violations) {
		return nil, fmt.Errorf("violation list differs from the %s oracle", want.Mode)
	}
	if cross != nil && !sameCounts(got.CountByRule, cross) {
		return nil, fmt.Errorf("per-rule counts differ between seq and par")
	}
	return &got, nil
}
