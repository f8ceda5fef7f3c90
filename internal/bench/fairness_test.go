package bench

import (
	"strings"
	"testing"
)

func TestFairGate(t *testing.T) {
	ok := func(policy string, w int) FairRow {
		return FairRow{Policy: policy, LightWeight: w, HeavyWeight: 1, HeavyChecks: 12, Identical: true}
	}
	differs, idle := ok("fair", 1), ok("fifo", 1)
	differs.Identical = false
	idle.HeavyChecks = 0
	for _, c := range []struct {
		name        string
		rows        []FairRow
		improvement float64
		want        []string // substrings of the gate error; nil = passes
	}{
		{"clean", []FairRow{ok("fifo", 1), ok("fair", 1), ok("fair", 4)}, 3.1, nil},
		// The threshold is inclusive: exactly fairMinImprovement passes.
		{"at threshold", []FairRow{ok("fifo", 1), ok("fair", 1)}, fairMinImprovement, nil},
		{"below threshold", []FairRow{ok("fifo", 1), ok("fair", 1)}, 1.99, []string{"1 regressed", "1.99x < 2.0x"}},
		// A sweep that never measured the equal-weight pair has improvement 0.
		{"no headline", nil, 0, []string{"0.00x < 2.0x"}},
		{"reports differ", []FairRow{ok("fifo", 1), differs}, 3.1, []string{"1 regressed", "fair w=1: light reports differ"}},
		{"no saturation", []FairRow{idle, ok("fair", 1)}, 3.1, []string{"1 regressed", "fifo w=1: heavy tenant completed no checks"}},
		{"every clause", []FairRow{idle, differs}, 1.2, []string{"3 regressed", "light reports differ", "no saturation", "1.20x"}},
	} {
		err := (&FairReport{Rows: c.rows, ImprovementP95: c.improvement}).Gate()
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: gated: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: not gated", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: gate error lacks %q:\n%v", c.name, w, err)
			}
		}
	}
}
