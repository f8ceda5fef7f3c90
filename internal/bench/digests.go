package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"opendrc/internal/core"
	"opendrc/internal/synth"
)

// Digest is one row of the canonical-report digest matrix: what a full-deck
// check of one design at one scale reports in one mode at one worker count.
// Canon is the sha256 of the report's canonical JSON (what `odrc -canon`
// prints), Rules its per-rule violation counts, Injected the number of
// violations synth planted in the design.
type Digest struct {
	Design   string         `json:"design"`
	Scale    float64        `json:"scale"`
	Mode     string         `json:"mode"`
	Workers  int            `json:"workers"`
	Canon    string         `json:"canon_sha256"`
	Rules    map[string]int `json:"rules"`
	Injected int            `json:"injected"`
}

// digestCase is one (design, scale) of the matrix and the worker counts it
// runs at in each mode.
type digestCase struct {
	design  string
	scale   float64
	workers []int
}

// digestMatrix is the fixed matrix: ethmac at scales 4 and 2.5 at 1, 2 and 4
// workers, and every design at scale 1 at 1 and 2 workers, in both modes.
func digestMatrix() []digestCase {
	cases := []digestCase{{"ethmac", 4, []int{1, 2, 4}}, {"ethmac", 2.5, []int{1, 2, 4}}}
	for _, d := range DesignNames() {
		cases = append(cases, digestCase{d, 1, []int{1, 2}})
	}
	return cases
}

// DigestsContext runs the digest matrix under ctx, one design at a time. A
// degraded report is an error: the matrix pins complete reports.
func DigestsContext(ctx context.Context) ([]Digest, error) {
	var out []Digest
	for _, c := range digestMatrix() {
		lo, exp, err := synth.Load(c.design, c.scale)
		if err != nil {
			return nil, err
		}
		for _, mode := range []core.Mode{core.Sequential, core.Parallel} {
			for _, w := range c.workers {
				eng := core.New(core.Options{Mode: mode, Workers: w})
				if err := eng.AddRules(synth.Deck()...); err != nil {
					return nil, err
				}
				rep, err := eng.CheckContext(ctx, lo)
				if err != nil {
					return nil, err
				}
				if rep.Degraded {
					return nil, fmt.Errorf("bench: degraded %s report for %s@%g (%d rule failures)", mode, c.design, c.scale, len(rep.Failures))
				}
				sum := sha256.Sum256(rep.AppendCanonicalJSON(nil))
				out = append(out, Digest{
					Design: c.design, Scale: c.scale, Mode: mode.String(), Workers: w,
					Canon: hex.EncodeToString(sum[:]), Rules: rep.CountByRule(), Injected: exp.Total,
				})
			}
		}
	}
	return out, nil
}

// WriteDigests writes the matrix as indented JSON.
func WriteDigests(w io.Writer, ds []Digest) error {
	b, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadDigests parses a matrix written by WriteDigests.
func ReadDigests(r io.Reader) ([]Digest, error) {
	var ds []Digest
	if err := json.NewDecoder(r).Decode(&ds); err != nil {
		return nil, fmt.Errorf("bench: digests: %w", err)
	}
	return ds, nil
}

// CompareDigests returns nil when got equals want row for row, and otherwise
// an error naming the first differing row and, within it, the first rule
// (in ID order) whose count differs.
func CompareDigests(want, got []Digest) error {
	if len(want) != len(got) {
		return fmt.Errorf("bench: digests: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		row := fmt.Sprintf("%s@%g %s workers=%d", w.Design, w.Scale, w.Mode, w.Workers)
		if w.Design != g.Design || w.Scale != g.Scale || w.Mode != g.Mode || w.Workers != g.Workers {
			return fmt.Errorf("bench: digests: row %d is %s@%g %s workers=%d, want %s", i, g.Design, g.Scale, g.Mode, g.Workers, row)
		}
		if w.Injected != g.Injected {
			return fmt.Errorf("bench: digests: %s: synth injected %d, want %d", row, g.Injected, w.Injected)
		}
		var ids []string
		for id := range w.Rules {
			ids = append(ids, id)
		}
		for id := range g.Rules {
			if _, ok := w.Rules[id]; !ok {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			if w.Rules[id] != g.Rules[id] {
				return fmt.Errorf("bench: digests: %s: rule %s has %d violations, want %d", row, id, g.Rules[id], w.Rules[id])
			}
		}
		if w.Canon != g.Canon {
			return fmt.Errorf("bench: digests: %s: canonical report sha256 %s, want %s (every rule's count matches)", row, g.Canon, w.Canon)
		}
	}
	return nil
}
