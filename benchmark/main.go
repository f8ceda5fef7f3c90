// Command odrc-e2e is the repository's end-to-end benchmark: it generates
// its inputs from a seed, runs one named workload against the real binaries
// (odrc exec'd per run, odrcd as a child process over loopback HTTP), checks
// every output byte for byte against an oracle, and prints every metric by
// name with its unit. BENCHMARK.json at the repository root names the
// command, the workloads and the metrics; README.md in this directory is
// the glossary.
//
// Usage (from the repository root; benchmark/run.sh builds and forwards):
//
//	odrc-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	odrc-e2e [--seed n] [--seconds s] [--out result.json]   every workload, untraced then traced
//	odrc-e2e --compare a.json b.json
//
// With --trace 0 the end-to-end metrics are measured with all tracing off;
// --trace 1 is a separate pass that produces the per-layer metrics by timing
// calls into each layer's public functions from this package's files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool     // smoke-test sizes: tiny inputs, a handful of ops
	log      *spanLog // harness spans; nil unless trace
}

// setups is how many times set-up runs (the median is reported): set-up time
// is a bounded end-to-end metric, and a single sample of it is too noisy to
// bound. The traced pass does not report it.
func (c config) setups() int {
	if c.trace || c.quick {
		return 1
	}
	return 3
}

// tracedOps is the fixed primary-op count of a traced service pass: fixed, so
// the exact-count metrics repeat exactly, and 100, the smallest n that has a
// p90.
func (c config) tracedOps() int {
	if c.quick {
		return 4
	}
	return minTailSamples
}

// fits reports whether a measured loop runs one more op: always the first,
// then only while one more op of typical length fits in the run's measuring
// time. lat holds the latencies of the successful ops so far, in ms; a failed
// op adds none, so when every op fails elapsed time alone ends the loop.
func (c config) fits(start time.Time, attempted int, lat samples) bool {
	if attempted == 0 {
		return true
	}
	elapsed := since(start).Seconds()
	if len(lat) == 0 {
		return elapsed < c.seconds
	}
	return elapsed+median(lat)/1000 <= c.seconds
}

// tally counts operations and keeps the first few failure messages.
type tally struct {
	attempted, failed int
	errs              []string
}

// count records one operation; err != nil marks it failed. It returns
// whether the op succeeded — a failed op contributes to no latency.
func (t *tally) count(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// outcome is what a workload run produced.
type outcome struct {
	tally
	metrics metrics
	opHash  string // fingerprint of the seeded op list ("" for the batch workloads: their op list is the same process n times)
}

// repeatSetup runs setup n times, tearing down all but the last, and returns
// the last product with the median set-up time in seconds.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			if err := teardown(last); err != nil {
				return last, 0, err
			}
		}
		t := now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, since(t).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// relDiff is a/b - 1, or 0 when b is 0.
func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a/b - 1
}

var workloads = map[string]func(*env, config) (*outcome, error){
	"batch_seq":  func(e *env, c config) (*outcome, error) { return runBatch(e, c, "seq") },
	"batch_par":  func(e *env, c config) (*outcome, error) { return runBatch(e, c, "par") },
	"serve_read": runServeRead,
	"serve_edit": runServeEdit,
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs a workload and shapes its metrics to the declared set: the
// untraced pass reports exactly the end-to-end metrics, the traced pass
// exactly the per-layer ones (0 where the workload never enters the layer).
func runOne(e *env, sp *spec, c config) (*result, *outcome, error) {
	run, ok := workloads[c.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.trace {
		c.log = newSpanLog()
	}
	out, err := run(e, c)
	if err != nil {
		return nil, nil, err
	}
	if c.log != nil {
		path := filepath.Join(e.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
		if err := c.log.write(path); err != nil {
			return nil, nil, err
		}
	}
	declared := sp.EndToEnd
	if c.trace {
		declared = sp.PerLayer
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared {
		v := out.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %q is not a number (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(out.metrics, d.Name)
	}
	for name := range out.metrics {
		return nil, nil, fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
	}
	return res, out, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(c config, res *result) {
	pass := "end-to-end"
	if c.trace {
		pass = "per-layer"
	}
	fmt.Printf("# %s seed=%d %s: attempted=%d failed=%d\n", c.workload, c.seed, pass, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// runRecord is one run in the --out file.
type runRecord struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	OpHash   string   `json:"op_list_hash,omitempty"`
	Errors   []string `json:"errors,omitempty"`
	result
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	BuildS     float64     `json:"build_s"`
	Runs       []runRecord `json:"runs"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("odrc-e2e", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all four, untraced then traced)")
	seed := fs.Uint64("seed", 1, "seed for the generated op lists")
	seconds := fs.Float64("seconds", 20, "measuring time of one untraced run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer pass")
	out := fs.String("out", "", "also write the results as JSON to this file")
	quick := fs.Bool("quick", false, "smoke-test sizes (scale 0.3, a handful of ops); numbers mean nothing")
	compare := fs.Bool("compare", false, "compare two --out files: odrc-e2e --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrc-e2e:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "odrc-e2e: --compare wants two result files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1))
	}
	// Two client goroutines plus the daemon on one core measure the OS
	// scheduler, not odrcd: refuse rather than emit numbers.
	if runtime.NumCPU() < 2 && !*quick {
		fmt.Fprintln(os.Stderr, "odrc-e2e: invalid run: needs nproc >= 2")
		return 2
	}
	e, err := newEnv(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrc-e2e:", err)
		return 2
	}
	defer e.close()
	fmt.Fprintf(os.Stderr, "odrc-e2e: build_s=%.3f commit=%s %s nproc=%d gomaxprocs=%d\n",
		e.buildS, commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	file := resultFile{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), BuildS: e.buildS}
	code := 0
	var single *result // the one-workload form ends with this as its last line
	if *workload != "" {
		c := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, quick: *quick}
		res, o, err := runOne(e, sp, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "odrc-e2e: %s: %v\n", c.workload, err)
			return 2
		}
		for _, msg := range o.errs {
			fmt.Fprintf(os.Stderr, "odrc-e2e: %s: failed op: %s\n", c.workload, msg)
		}
		if !res.Correct {
			code = 1
		}
		printMetrics(c, res)
		file.Runs = append(file.Runs, runRecord{Workload: c.workload, Trace: c.trace, Seed: c.seed,
			Seconds: c.seconds, OpHash: o.opHash, Errors: o.errs, result: *res})
		single = res
	} else {
		// Every run in a fresh process, exactly as the driver runs them: the
		// in-process ledger is sensitive to what the process did before.
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "odrc-e2e:", err)
			return 2
		}
		tmp := filepath.Join(e.work, "run.json")
		for _, w := range sp.Workloads {
			for _, tr := range []string{"0", "1"} {
				cmd := exec.Command(self, "--workload", w.Name, "--trace", tr, "--out", tmp,
					"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), fmt.Sprintf("--quick=%v", *quick))
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "odrc-e2e: %s trace=%s: %v\n", w.Name, tr, err)
					code = 1
				}
				if sub, err := readResults(tmp); err == nil {
					file.Runs = append(file.Runs, sub.Runs...)
				}
				_ = os.Remove(tmp) // absent when the run died before writing it
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "odrc-e2e:", err)
			return 2
		}
	}
	if single != nil {
		line, err := json.Marshal(single)
		if err != nil {
			fmt.Fprintln(os.Stderr, "odrc-e2e:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	return code
}
