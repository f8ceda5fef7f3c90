package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// Cross-tenant fairness experiment: two tenants share one scheduler's
// worker set. The heavy tenant saturates it with back-to-back full-deck
// checks of a larger design; the light tenant runs small checks and
// measures each one's latency. The sweep compares the light tenant's p50
// and p95 under the pre-scheduler FIFO baseline (global arrival order — a
// light fan-out queues behind every heavy chunk already submitted) against
// the weighted-fair stride policy, where the shared workers split between
// tenants by weight no matter how much the heavy tenant has queued.
// Every row cross-checks the light tenant's canonical report bytes against
// an unloaded solo run — fairness moves latency, never results.

const (
	// fairSchedWorkers is the shared worker count W. The light tenant's
	// expected p95 improvement is ~(1 + W/2): under FIFO only the light
	// caller itself (caller-participation) advances light chunks, while
	// fair splits the W workers evenly between the two equal-weight
	// tenants, adding ~W/2 servers to the caller.
	fairSchedWorkers = 8
	// fairEngineWorkers is the per-fan-out worker bound (explicit: the
	// experiment must take the multi-worker path on any host).
	fairEngineWorkers = 8
	// fairHeavyStreams is how many concurrent heavy check loops saturate
	// the scheduler (separate sessions — one session serializes checks).
	// The FIFO baseline's damage is proportional to how many heavy
	// fan-outs are queued ahead of a light arrival, so saturation needs
	// several concurrent streams, not one loop.
	fairHeavyStreams = 6

	// Both tenants run the same design: "light" means light offered load
	// (one check at a time, measured), not small checks. A light check must
	// span several OS scheduling quanta for queueing policy to be visible
	// at all — sub-millisecond checks complete inside one quantum and never
	// wait — so the sweep wants -scale large enough that a warm check costs
	// tens of milliseconds.
	fairLightDesign = "sha3"
	fairHeavyDesign = "sha3"

	// fairThink is the light tenant's closed-loop think time between
	// checks, applied identically under every policy (and excluded from
	// each check's measured latency). An interactive tenant edits, reads a
	// report, then re-checks — it does not saturate. The gap also matters
	// mechanically: it is when the saturating co-tenant's stride pass
	// advances past the light tenant's, which is what renews the light
	// tenant's rejoin credit at its next check (pool.Scheduler joinLocked).
	fairThink = 40 * time.Millisecond
)

// FairRow is the light tenant's latency distribution under one policy.
type FairRow struct {
	Policy      string `json:"policy"`
	LightWeight int    `json:"light_weight"`
	HeavyWeight int    `json:"heavy_weight"`
	LightChecks int    `json:"light_checks"`

	P50US  int64 `json:"light_p50_us"`
	P95US  int64 `json:"light_p95_us"`
	MeanUS int64 `json:"light_mean_us"`

	// HeavyChecks counts co-tenant checks completed during the row — the
	// saturation evidence.
	HeavyChecks int64 `json:"heavy_checks_completed"`
	// Identical is true when every light report's canonical bytes equal the
	// unloaded solo run's — the correctness contract.
	Identical bool `json:"reports_identical"`
}

// FairReport is the whole experiment, serialized to BENCH_fair.json.
type FairReport struct {
	Scale         float64 `json:"scale"`
	SchedWorkers  int     `json:"sched_workers"`
	EngineWorkers int     `json:"engine_workers"`
	LightDesign   string  `json:"light_design"`
	HeavyDesign   string  `json:"heavy_design"`
	SoloP95US     int64   `json:"light_solo_p95_us"`

	Rows []FairRow `json:"rows"`

	// ImprovementP95 is the headline: FIFO p95 / fair p95 at equal weights.
	ImprovementP95 float64 `json:"light_p95_improvement"`
}

// canonBytes renders a report's canonical form.
func canonBytes(rep *core.Report) (string, error) {
	var buf bytes.Buffer
	if err := rep.WriteCanonicalJSON(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// farDirt lists, for every layer the deck reads, a sliver far outside the
// die. A session answers a repeated identical check from its rule records, so
// a load that means "repeated real work" invalidates these regions before
// each check: every record falls behind and every rule executes, while the
// sliver touches no geometry — the caches stay warm and the reports
// identical.
func farDirt(lo *layout.Layout, deck rules.Deck) []core.LayerRegion {
	die := lo.Top.MBR()
	far := []geom.Rect{geom.R(die.XHi+1_000_000, die.YHi+1_000_000, die.XHi+1_000_010, die.YHi+1_000_010)}
	var regions []core.LayerRegion
	seen := map[layout.Layer]bool{}
	for _, r := range deck {
		// Outer is zero on one-layer kinds; dirt on a layer nothing reads is
		// harmless.
		for _, l := range []layout.Layer{r.Layer, r.Outer} {
			if !seen[l] {
				seen[l] = true
				regions = append(regions, core.LayerRegion{Layer: l, Rects: far})
			}
		}
	}
	return regions
}

// checkDirty is one executed check: dirty every deck layer, then check.
func checkDirty(ctx context.Context, ses *core.Session, deck rules.Deck, dirt []core.LayerRegion) (*core.Report, error) {
	if err := ses.Invalidate(ctx, dirt...); err != nil {
		return nil, err
	}
	return ses.Check(ctx, deck)
}

// fairLoad is the heavy tenant's saturation harness: looping full-deck
// checks on dedicated sessions until stopped.
type fairLoad struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	checks atomic.Int64
	err    atomic.Pointer[error]
}

// startHeavy launches the heavy check loops. ctx must already carry the
// scheduler and the heavy tenant tag.
func startHeavy(ctx context.Context, sessions []*core.Session) *fairLoad {
	ld := &fairLoad{stop: make(chan struct{})}
	full := synth.Deck()
	for _, ses := range sessions {
		ses := ses
		dirt := farDirt(ses.Layout(), full)
		ld.wg.Add(1)
		go func() { //odrc:allow rawgo — benchmark load generator, joined by fairLoad.wait
			defer ld.wg.Done()
			for {
				select {
				case <-ld.stop:
					return
				default:
				}
				if _, err := checkDirty(ctx, ses, full, dirt); err != nil {
					if ctx.Err() == nil {
						ld.err.CompareAndSwap(nil, &err)
					}
					return
				}
				ld.checks.Add(1)
			}
		}()
	}
	return ld
}

// wait stops the load and returns the first loop error, if any.
func (ld *fairLoad) wait() error {
	close(ld.stop)
	ld.wg.Wait()
	if p := ld.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fairPolicies is the row sweep: the FIFO baseline, equal-weight fair
// share (the gated comparison), and a 4× light weight showing the knob.
func fairPolicies() []struct {
	policy      pool.SchedPolicy
	lightWeight int
} {
	return []struct {
		policy      pool.SchedPolicy
		lightWeight int
	}{
		{pool.FIFO, 1},
		{pool.FairShare, 1},
		{pool.FairShare, 4},
	}
}

// FairnessContext runs the sweep. checks light checks are measured per row
// (at least 20 for a stable p95).
func FairnessContext(ctx context.Context, checks int, scale float64) (*FairReport, error) {
	if checks < 20 {
		checks = 20
	}
	out := &FairReport{
		Scale:         scale,
		SchedWorkers:  fairSchedWorkers,
		EngineWorkers: fairEngineWorkers,
		LightDesign:   fairLightDesign,
		HeavyDesign:   fairHeavyDesign,
	}
	deck := synth.Deck()

	// Sessions are seq mode: host-side fan-outs are what the scheduler
	// routes (par mode's kernels run on the simulated device).
	opts := core.Options{Mode: core.Sequential, Workers: fairEngineWorkers}
	lightLo, _, err := synth.Load(fairLightDesign, scale)
	if err != nil {
		return nil, err
	}
	light := core.NewSession(lightLo, opts)
	defer light.Close(ctx)
	lightDirt := farDirt(lightLo, deck)

	heavySessions := make([]*core.Session, fairHeavyStreams)
	for i := range heavySessions {
		lo, _, err := synth.Load(fairHeavyDesign, scale)
		if err != nil {
			return nil, err
		}
		heavySessions[i] = core.NewSession(lo, opts)
		defer heavySessions[i].Close(ctx)
	}

	// Solo oracle: the light tenant unloaded, no scheduler. The first check
	// warms the session's geometry cache; the rest measure the steady state
	// every loaded row is compared against.
	soloRep, err := light.Check(ctx, deck)
	if err != nil {
		return nil, fmt.Errorf("solo warmup: %w", err)
	}
	oracle, err := canonBytes(soloRep)
	if err != nil {
		return nil, err
	}
	soloLat := make([]time.Duration, 0, checks)
	for i := 0; i < checks; i++ {
		t0 := time.Now()
		rep, err := checkDirty(ctx, light, deck, lightDirt)
		if err != nil {
			return nil, fmt.Errorf("solo check: %w", err)
		}
		soloLat = append(soloLat, time.Since(t0))
		if c, err := canonBytes(rep); err != nil {
			return nil, err
		} else if c != oracle {
			return nil, fmt.Errorf("solo checks not deterministic")
		}
	}
	out.SoloP95US = percentileDuration(soloLat, 0.95).Microseconds()

	for _, pc := range fairPolicies() {
		sched := pool.NewScheduler(pool.SchedConfig{
			Workers: fairSchedWorkers,
			Policy:  pc.policy,
			Weights: map[string]int{"light": pc.lightWeight},
		})
		schedCtx := pool.WithScheduler(ctx, sched)
		lightCtx := pool.WithTenant(schedCtx, "light")
		heavyCtx := pool.WithTenant(schedCtx, "heavy")

		ld := startHeavy(heavyCtx, heavySessions)
		// Let the heavy loops saturate the queues before measuring.
		time.Sleep(50 * time.Millisecond)

		lat := make([]time.Duration, 0, checks)
		identical := true
		var runErr error
		for i := 0; i < checks; i++ {
			if i > 0 {
				time.Sleep(fairThink)
			}
			t0 := time.Now()
			rep, err := checkDirty(lightCtx, light, deck, lightDirt)
			if err != nil {
				runErr = fmt.Errorf("light check under %s: %w", pc.policy, err)
				break
			}
			lat = append(lat, time.Since(t0))
			c, err := canonBytes(rep)
			if err != nil {
				runErr = err
				break
			}
			if c != oracle {
				identical = false
			}
		}
		loadErr := ld.wait()
		sched.Close()
		if runErr != nil {
			return nil, runErr
		}
		if loadErr != nil {
			return nil, fmt.Errorf("heavy load under %s: %w", pc.policy, loadErr)
		}

		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		out.Rows = append(out.Rows, FairRow{
			Policy:      pc.policy.String(),
			LightWeight: pc.lightWeight,
			HeavyWeight: 1,
			LightChecks: len(lat),
			P50US:       percentileDuration(lat, 0.50).Microseconds(),
			P95US:       percentileDuration(lat, 0.95).Microseconds(),
			MeanUS:      (sum / time.Duration(len(lat))).Microseconds(),
			HeavyChecks: ld.checks.Load(),
			Identical:   identical,
		})
	}

	var fifoP95, fairP95 int64
	for _, row := range out.Rows {
		if row.Policy == "fifo" && row.LightWeight == 1 {
			fifoP95 = row.P95US
		}
		if row.Policy == "fair" && row.LightWeight == 1 {
			fairP95 = row.P95US
		}
	}
	if fairP95 > 0 {
		out.ImprovementP95 = float64(fifoP95) / float64(fairP95)
	}
	return out, nil
}

// WriteJSON serializes the report.
func (r *FairReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTo renders an aligned text table.
func (r *FairReport) WriteTo(w io.Writer) (int64, error) {
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := p("Fair scheduling: light tenant (%s) latency under heavy co-tenant load (%s ×%d), %d shared workers, scale %g\n",
		r.LightDesign, r.HeavyDesign, fairHeavyStreams, r.SchedWorkers, r.Scale); err != nil {
		return total, err
	}
	if err := p("solo (unloaded) light p95: %s\n",
		fmtDur(time.Duration(r.SoloP95US)*time.Microsecond)); err != nil {
		return total, err
	}
	if err := p("%-8s %-8s %8s %12s %12s %12s %12s %10s\n",
		"policy", "weight", "checks", "p50", "p95", "mean", "heavy done", "identical"); err != nil {
		return total, err
	}
	for _, row := range r.Rows {
		if err := p("%-8s %5d:%-2d %8d %12s %12s %12s %12d %10v\n",
			row.Policy, row.LightWeight, row.HeavyWeight, row.LightChecks,
			fmtDur(time.Duration(row.P50US)*time.Microsecond),
			fmtDur(time.Duration(row.P95US)*time.Microsecond),
			fmtDur(time.Duration(row.MeanUS)*time.Microsecond),
			row.HeavyChecks, row.Identical); err != nil {
			return total, err
		}
	}
	return total, p("light p95 improvement (fifo → fair, equal weights): %.2fx\n", r.ImprovementP95)
}

// fairMinImprovement gates the headline ratio: at equal weights the fair
// policy must at least halve the light tenant's p95 vs the FIFO baseline.
const fairMinImprovement = 2.0

// Gate returns an error when any row's reports differ from the solo run or
// the equal-weight fair policy failed to improve the light tenant's p95 by
// the required factor.
func (r *FairReport) Gate() error {
	var bad []string
	for _, row := range r.Rows {
		if !row.Identical {
			bad = append(bad, fmt.Sprintf("%s w=%d: light reports differ from the unloaded solo run",
				row.Policy, row.LightWeight))
		}
		if row.HeavyChecks == 0 {
			bad = append(bad, fmt.Sprintf("%s w=%d: heavy tenant completed no checks (no saturation)",
				row.Policy, row.LightWeight))
		}
	}
	if r.ImprovementP95 < fairMinImprovement {
		bad = append(bad, fmt.Sprintf("light p95 improvement %.2fx < %.1fx (fifo vs fair, equal weights)",
			r.ImprovementP95, fairMinImprovement))
	}
	if len(bad) > 0 {
		return fmt.Errorf("fairness gate: %d regressed row(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
