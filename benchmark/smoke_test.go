package main

import (
	"encoding/json"
	"testing"
	"time"
)

// TestQuickSmoke drives every workload, untraced and traced, end to end at
// smoke-test size against freshly built binaries: real odrc processes, a
// real odrcd over loopback, every output checked against its oracle. It
// asserts the result shape, not the numbers.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			c := config{workload: w.Name, seed: 5, seconds: 0.3, trace: trace, quick: true}
			res, out, err := runOne(e, sp, c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, out.errs)
			}
			declared := sp.EndToEnd
			if trace {
				declared = sp.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			wantKeys(t, "the result line", line, "correct", "attempted", "failed", "metrics")
		}
	}
}

// TestEveryOpFails: a failed op adds no latency sample, so a measured loop
// that asked "does one more typical op fit?" of the successes alone would
// never end once every op fails. Each measured loop must instead stop when
// its measuring time is used up and report the failures: here every odrc
// run and every served body differs from a doctored oracle, and every
// edit/delta cycle addresses a session the daemon does not hold.
func TestEveryOpFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	c := config{seed: 5, seconds: 0.3, quick: true}
	junk := []byte(`"not the oracle"`)
	cases := []struct {
		name string
		run  func() (*outcome, error)
	}{
		{"batch_seq", func() (*outcome, error) {
			in, err := e.batchSetup(quickScale, "seq")
			if err != nil {
				return nil, err
			}
			in.want.Violations = junk
			return measureBatch(e, c, "seq", in, 1)
		}},
		{"serve_read", func() (*outcome, error) {
			in, err := e.serveSetup(quickScale, []string{"a", "b"}, []string{ruleSpacing, ruleEnclosure, ruleFloor})
			if err != nil {
				return nil, err
			}
			for rule := range in.oracle {
				in.oracle[rule] = junk
			}
			return serveRead(in, 1, c)
		}},
		{"serve_edit", func() (*outcome, error) {
			in, err := e.serveSetup(quickScale, []string{"not-e"}, nil)
			if err != nil {
				return nil, err
			}
			return serveEdit(in, 1, c)
		}},
	}
	for _, tc := range cases {
		var out *outcome
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			out, err = tc.run()
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%s: still running a minute into a %.1f s run in which every op fails", tc.name, c.seconds)
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		// Only the daemon's clean drain, counted as one op, may succeed.
		if out.failed < 1 || out.failed < out.attempted-1 {
			t.Errorf("%s: attempted=%d failed=%d, want every measured op failed", tc.name, out.attempted, out.failed)
		}
		if v := out.metrics["op_p50_ms"]; v != 0 {
			t.Errorf("%s: op_p50_ms = %v from a run with no successful op", tc.name, v)
		}
	}
}

func TestCompare(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	file := func(scale float64) *resultFile {
		f := &resultFile{}
		for _, w := range sp.Workloads {
			r := runRecord{Workload: w.Name, result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
			for _, d := range sp.EndToEnd {
				v := 100.0
				if d.Better == "higher" {
					v /= scale
				} else {
					v *= scale
				}
				r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	if code := compareResults(sp, file(1), file(1.02)); code != 0 {
		t.Errorf("2 %% worse on every metric: exit %d, want 0", code)
	}
	if code := compareResults(sp, file(1), file(0.5)); code != 0 {
		t.Errorf("better on every metric: exit %d, want 0", code)
	}
	if code := compareResults(sp, file(1), file(1.5)); code != 1 {
		t.Errorf("50 %% worse on every metric: exit %d, want 1", code)
	}
	// A run that measured nothing must not pass as "0 % worse", whichever
	// side it is on and whichever direction the metric has.
	for _, d := range sp.EndToEnd {
		for _, side := range []int{0, 1} {
			files := [2]*resultFile{file(1), file(1)}
			files[side].Runs[0].Metrics[d.Name] = metricValue{Unit: d.Unit}
			if code := compareResults(sp, files[0], files[1]); code != 1 {
				t.Errorf("%s = 0 in file %d: exit %d, want 1", d.Name, side, code)
			}
			delete(files[side].Runs[0].Metrics, d.Name)
			if code := compareResults(sp, files[0], files[1]); code != 1 {
				t.Errorf("%s missing from file %d: exit %d, want 1", d.Name, side, code)
			}
		}
	}
}
