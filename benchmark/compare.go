package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction (negative means b is better).
func worsening(d metricDecl, a, b float64) float64 {
	if d.Better == "higher" {
		return relDiff(a, b)
	}
	return relDiff(b, a)
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// relative difference and the bound, and returns 1 if b is worse than a by
// more than a bound anywhere, failed any operation, or either side has a
// metric missing or at 0 (an end-to-end metric is never 0: a zero means the
// run measured nothing, and there is no ratio to hold against the bound).
func compareFiles(sp *spec, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "odrc-e2e:", err)
		return 2
	}
	return compareResults(sp, a, b)
}

func compareResults(sp *spec, a, b *resultFile) int {
	untraced := func(f *resultFile, workload string) *runRecord {
		for i := range f.Runs {
			if r := &f.Runs[i]; r.Workload == workload && !r.Trace {
				return r
			}
		}
		return nil
	}
	code := 0
	fmt.Printf("%-11s %-15s %14s %14s %8s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, w := range sp.Workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if ra == nil || rb == nil {
			fmt.Printf("%-11s missing from one of the files\n", w.Name)
			code = 1
			continue
		}
		if rb.Failed > 0 {
			fmt.Printf("%-11s %d of %d operations failed in b\n", w.Name, rb.Failed, rb.Attempted)
			code = 1
		}
		for _, d := range sp.EndToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			if va <= 0 || vb <= 0 {
				fmt.Printf("%-11s %-15s %14.4f %14.4f %8s %6.0f%%  UNRESOLVED (missing or zero)\n", w.Name, d.Name, va, vb, "-", 100*d.Bound)
				code = 1
				continue
			}
			worse := worsening(d, va, vb)
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDED"
				code = 1
			}
			fmt.Printf("%-11s %-15s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
