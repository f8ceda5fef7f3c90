package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
)

// The service workloads: one odrcd child (default flags) over loopback HTTP,
// holding par-mode sessions of ethmac@2.5 loaded from the generated GDSII.
// Both are closed loops — odrcd's callers (an editor plug-in, a CI job) each
// wait for their reply before sending the next request.
//
//   - serve_read: two clients, two sessions under distinct tenants, both
//     warmed in set-up. Client A sends warm full-deck checks; client B a
//     seeded shuffle of three single-rule checks until A finishes. Every
//     request is a geocache hit, so flatten/pack/parse are bypassed and
//     server, the pool scheduler, the warm core.Session, kernels and
//     serialisation carry the load.
//   - serve_edit: one client, one session: edit -> delta check cycles, the
//     write side of the layers serve_read only reads (layout.ApplyEdits,
//     geocache.InvalidateRegion, delta planning, partial device refresh).
//     Nothing else touches the session between an edit and its delta check:
//     an interleaved single-rule check makes every delta fall back to a
//     full check ("deck changed since baseline"); see README, findings.

// serveInput is a service workload's set-up product: a ready daemon with
// warm sessions, and the oracles its responses are compared against.
type serveInput struct {
	d        *design
	dm       *daemon
	sessions []string          // the warm sessions, in creation order
	oracle   map[string][]byte // rule id -> `odrc -canon -rule id` bytes; "" is the full deck
	createD  samples           // POST /v1/sessions latency, per session
	coldD    samples           // first (cold) full check latency, per session
}

func checkPath(session string) string { return "/v1/sessions/" + session + "/check" }

func ruleBody(rule string) string {
	if rule == "" {
		return ""
	}
	return `{"rules":["` + rule + `"]}`
}

// verify is the per-response oracle: 200 and byte-identical to batch.
func (in *serveInput) verify(r reply, rule string) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if !bytes.Equal(r.body, in.oracle[rule]) {
		return fmt.Errorf("body differs from odrc -canon (rule %q)", rule)
	}
	return nil
}

// createSession loads the generated GDSII as a par-mode session under its
// own tenant.
func (in *serveInput) createSession(id string) (reply, error) {
	body, err := json.Marshal(map[string]string{"id": id, "tenant": "tenant-" + id, "gds": in.d.gds, "mode": "par"})
	if err != nil {
		return reply{}, err
	}
	r, err := in.dm.post("/v1/sessions", string(body))
	if err == nil && r.status != http.StatusCreated {
		err = fmt.Errorf("create session %s: status %d: %s", id, r.status, r.body)
	}
	return r, err
}

// serveSetup generates the input, computes the oracles, starts odrcd, and
// leaves every session warm: created and checked once, cold, against the
// full-deck oracle.
func (e *env) serveSetup(scale float64, sessions, rules []string) (*serveInput, error) {
	d, err := e.generate(scale)
	if err != nil {
		return nil, err
	}
	in := &serveInput{d: d, sessions: sessions, oracle: map[string][]byte{}}
	for _, rule := range append([]string{""}, rules...) {
		if in.oracle[rule], _, err = e.oracle(d.gds, "par", rule); err != nil {
			return nil, err
		}
	}
	if in.dm, err = e.startDaemon(); err != nil {
		return nil, err
	}
	for _, id := range sessions {
		r, err := in.createSession(id)
		if err == nil {
			in.createD.add(r.lat)
			if r, err = in.dm.post(checkPath(id), ""); err == nil {
				err = in.verify(r, "")
			}
		}
		if err != nil {
			_ = in.dm.stop() // the set-up error is the one to report
			return nil, fmt.Errorf("session %s: %w", id, err)
		}
		in.coldD.add(r.lat)
	}
	return in, nil
}

func (in *serveInput) teardown() error { return in.dm.stop() }

// scrape is what the daemon says about itself, read between phases.
type scrape struct {
	goroutines float64
	resident   float64 // device-resident bytes over the scraped sessions
	flatHits   float64
	flatMisses float64
	rowsReused float64
	rowsReq    float64
	fullInval  float64
	deltaUp    float64
	dispatched float64
	selfServed float64
	gated      float64
}

func (in *serveInput) scrape() (scrape, error) {
	var s scrape
	var g struct{ Goroutines float64 }
	if err := in.dm.getJSON("/debug/goroutines", &g); err != nil {
		return s, err
	}
	s.goroutines = g.Goroutines
	for _, id := range in.sessions {
		var st struct {
			Stats struct {
				Geocache struct {
					FlattenHits, FlattenMisses, RowsReused, RowsRequeried, FullInvalidations float64
				} `json:"geocache"`
				ResidentBytes      float64 `json:"resident_bytes"`
				DeviceDeltaUploads float64 `json:"device_delta_uploads"`
			} `json:"stats"`
		}
		if err := in.dm.getJSON("/v1/sessions/"+id+"/stats", &st); err != nil {
			return s, err
		}
		gc := st.Stats.Geocache
		s.resident += st.Stats.ResidentBytes
		s.flatHits += gc.FlattenHits
		s.flatMisses += gc.FlattenMisses
		s.rowsReused += gc.RowsReused
		s.rowsReq += gc.RowsRequeried
		s.fullInval += gc.FullInvalidations
		s.deltaUp += st.Stats.DeviceDeltaUploads
	}
	var sc struct {
		Tenants []struct {
			Dispatched float64 `json:"dispatched_chunks"`
			SelfServed float64 `json:"self_served_chunks"`
			Gated      float64 `json:"gated_waits"`
		} `json:"tenants"`
	}
	if err := in.dm.getJSON("/debug/sched", &sc); err != nil {
		return s, err
	}
	for _, t := range sc.Tenants {
		s.dispatched += t.Dispatched
		s.selfServed += t.SelfServed
		s.gated += t.Gated
	}
	return s, nil
}

// ratio is a/(a+b), or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// clientStats is what one closed-loop client saw.
type clientStats struct {
	tally
	lat      map[string]*samples // per request class
	modeled  samples             // X-Odrc-Modeled-Us of the primary class
	overhead samples             // client latency - reported host wall, every check
	status   map[int]int         // non-200 responses
}

func newClientStats() *clientStats {
	return &clientStats{lat: map[string]*samples{}, status: map[int]int{}}
}

// class returns the latency samples of one request class.
func (c *clientStats) class(name string) *samples {
	if c.lat[name] == nil {
		c.lat[name] = &samples{}
	}
	return c.lat[name]
}

// record counts one check response under its class; verr is the oracle's
// verdict. A failed op contributes to no latency class.
func (c *clientStats) record(class string, r reply, verr error, log *spanLog, op int) {
	if r.status != http.StatusOK {
		c.status[r.status]++
	}
	if !c.count(verr) {
		return
	}
	c.class(class).add(r.lat)
	hw := r.hdrUS("X-Odrc-Host-Wall-Us")
	c.overhead.add(r.lat - hw)
	id := log.ended("http."+class, -1, op, r.lat)
	log.ended("core.session_check(reported)", id, op, hw)
}

func (c *clientStats) p50(class string) float64 { return median(*c.class(class)) }
func (c *clientStats) p90(class string) float64 { return p90OrZero(*c.class(class)) }

// verifyEvery: serve_edit compares every 10th delta body with a plain full
// check.
const verifyEvery = 10

func runServeRead(e *env, c config) (*outcome, error) {
	scale := serveScale
	if c.quick {
		scale = quickScale
	}
	rules := []string{ruleSpacing, ruleEnclosure, ruleFloor}
	in, setupS, err := repeatSetup(c.setups(),
		func() (*serveInput, error) { return e.serveSetup(scale, []string{"a", "b"}, rules) },
		(*serveInput).teardown)
	if err != nil {
		return nil, err
	}
	return serveRead(in, setupS, c)
}

// serveRead runs the two clients against a ready daemon holding warm
// sessions a and b, and stops the daemon.
func serveRead(in *serveInput, setupS float64, c config) (*outcome, error) {
	defer in.dm.stop() // error paths; the success path stops it below and counts the result
	before, err := in.scrape()
	if err != nil {
		return nil, err
	}

	// Client B: single-rule checks on session b until A is done.
	b := newClientStats()
	var aDone atomic.Bool
	var bErr error
	waitB := spawn(func() {
		stream := newRuleStream(c.seed)
		for op := 1 << 20; !aDone.Load(); op++ {
			rule := stream.next()
			r, err := in.dm.post(checkPath("b"), ruleBody(rule))
			if err != nil {
				bErr = err
				return
			}
			b.record(rule, r, in.verify(r, rule), c.log, op)
		}
	})

	// Client A: warm full-deck checks on session a. In the traced pass the
	// first half runs without harness spans and the second half with them.
	a := newClientStats()
	plain := newClientStats()
	start := now()
	var aErr error
	for n := 0; aErr == nil; n++ {
		if c.trace && n >= c.tracedOps() {
			break
		}
		if !c.trace && !c.fits(start, n, *a.class("full")) {
			break
		}
		st, log := a, c.log
		if c.trace && n < c.tracedOps()/2 {
			st, log = plain, nil
		}
		r, err := in.dm.post(checkPath("a"), "")
		if err != nil {
			aErr = err
			break
		}
		st.record("full", r, in.verify(r, ""), log, n)
		if st == a {
			a.modeled.add(r.hdrUS("X-Odrc-Modeled-Us"))
		}
	}
	wall := since(start)
	aDone.Store(true)
	waitB()
	if aErr == nil {
		aErr = bErr
	}
	if aErr != nil {
		return nil, aErr
	}
	after, err := in.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := in.dm.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var t tally
	t.merge(a.tally)
	t.merge(plain.tally)
	t.merge(b.tally)
	t.count(in.teardown()) // a dirty drain is a failed operation

	if !c.trace {
		return &outcome{tally: t, opHash: opListHash(c.workload, c.seed, nil), metrics: metrics{
			"setup_s":        setupS,
			"op_p50_ms":      a.p50("full"),
			"ops_per_s":      float64(len(*a.class("full"))) / wall.Seconds(),
			"modeled_p50_ms": median(a.modeled),
			"peak_rss_mb":    rss,
		}}, nil
	}

	all := append(append(samples{}, *a.class("full")...), *plain.class("full")...)
	m := metrics{
		"synth.generate_ms":             ms(in.d.genD),
		"gdsii.write_ms":                ms(in.d.writeD),
		"client.full_p50_ms":            median(all),
		"client.full_p90_ms":            p90OrZero(all),
		"client.rule_p50_ms":            b.p50(ruleSpacing),
		"client.rule_p90_ms":            b.p90(ruleSpacing),
		"server.floor_p50_ms":           b.p50(ruleFloor),
		"server.rule_en_p50_ms":         b.p50(ruleEnclosure),
		"server.overhead_p50_ms":        median(append(append(samples{}, a.overhead...), b.overhead...)),
		"server.create_ms":              median(in.createD),
		"server.cold_check_ms":          median(in.coldD),
		"server.shed_429":               float64(a.status[429] + plain.status[429] + b.status[429]),
		"server.timeouts_504":           float64(a.status[504] + plain.status[504] + b.status[504]),
		"server.resident_bytes":         after.resident,
		"server.goroutines_delta":       after.goroutines - before.goroutines,
		"geocache.flatten_hit_frac":     ratio(after.flatHits-before.flatHits, after.flatMisses-before.flatMisses),
		"pool.sched.dispatched_chunks":  after.dispatched - before.dispatched,
		"pool.sched.self_served_chunks": after.selfServed - before.selfServed,
		"pool.sched.gated":              after.gated - before.gated,
		"ledger.harness_overhead_frac":  relDiff(a.p50("full"), plain.p50("full")),
	}
	ctx := context.Background()
	lo, err := sessionProbe(ctx, in.d.lib, m)
	if err != nil {
		return nil, err
	}
	if err := parProbes(ctx, lo, m); err != nil {
		return nil, err
	}
	if err := poolProbe(ctx, m); err != nil {
		return nil, err
	}
	return &outcome{tally: t, opHash: opListHash(c.workload, c.seed, nil), metrics: m}, nil
}

// editReply is odrcd's edit response.
type editReply struct {
	Applied int `json:"applied"`
	Layers  []struct {
		Rects int `json:"dirty_rects"`
	} `json:"layers"`
}

// checkEdit requires a 200 and at least one dirty rect: an edit that changes
// nothing would make the following delta check trivially cheap.
func checkEdit(r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("edit: status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var er editReply
	if err := json.Unmarshal(r.body, &er); err != nil {
		return fmt.Errorf("edit reply: %w", err)
	}
	dirty := 0
	for _, l := range er.Layers {
		dirty += l.Rects
	}
	if dirty < 1 {
		return fmt.Errorf("edit reported no dirty rect")
	}
	return nil
}

// editRun accumulates serve_edit's cycles.
type editRun struct {
	tally
	cycle, plainCycle, modeled             samples // plainCycle: the traced pass's span-free half
	editLat, verifyLat                     samples
	deltaHost, m1Host, routeHost, overhead samples
	planned, skipped, restricted, full     float64 // from the X-Odrc-Delta-* headers, summed
	edits                                  []editOp
	last                                   []byte // latest verified-or-delta body
	status                                 map[int]int
}

// one runs cycle n: the edit request, the delta check (together the cycle
// latency, edit to updated report), and on every verifyEvery-th cycle a
// plain full check whose body must equal the delta body.
func (r *editRun) one(in *serveInput, n int, ed editOp, log *spanLog, plain bool) error {
	r.edits = append(r.edits, ed)
	id := log.begin("client.cycle", -1, n)
	t0 := now()
	er, err := in.dm.post("/v1/sessions/e/edit", editBody(ed))
	if err != nil {
		return err
	}
	log.ended("http.edit", id, n, er.lat)
	dr, err := in.dm.post(checkPath("e"), `{"delta":true}`)
	if err != nil {
		return err
	}
	d := since(t0)
	log.ended("http.delta_check", id, n, dr.lat)
	log.end(id)

	for _, rep := range []reply{er, dr} {
		if rep.status != http.StatusOK {
			r.status[rep.status]++
		}
	}
	verr := checkEdit(er)
	switch {
	case verr != nil:
	case dr.status != http.StatusOK:
		verr = fmt.Errorf("delta check: status %d: %s", dr.status, bytes.TrimSpace(dr.body))
	case dr.hdr.Get("X-Odrc-Delta-Planned") != "true":
		verr = fmt.Errorf("delta check fell back: %s", dr.hdr.Get("X-Odrc-Delta-Fallback"))
	}
	if dr.status == http.StatusOK {
		r.last = dr.body
		if dr.hdr.Get("X-Odrc-Delta-Planned") == "true" {
			r.planned++
		}
		r.skipped += float64(dr.hdrInt("X-Odrc-Delta-Rules-Skipped"))
		r.restricted += float64(dr.hdrInt("X-Odrc-Delta-Rules-Restricted"))
		r.full += float64(dr.hdrInt("X-Odrc-Delta-Rules-Full"))
	}
	if r.count(verr) {
		if plain {
			r.plainCycle.add(d)
		} else {
			r.cycle.add(d)
		}
		r.modeled.add(dr.hdrUS("X-Odrc-Modeled-Us"))
		r.editLat.add(er.lat)
		hw := dr.hdrUS("X-Odrc-Host-Wall-Us")
		r.deltaHost.add(hw)
		r.overhead.add(dr.lat - hw)
		if ed.routing() {
			r.routeHost.add(hw)
		} else {
			r.m1Host.add(hw)
		}
	}
	if (n+1)%verifyEvery != 0 {
		return nil
	}
	fr, err := in.dm.post(checkPath("e"), "")
	if err != nil {
		return err
	}
	verr = nil
	switch {
	case fr.status != http.StatusOK:
		r.status[fr.status]++
		verr = fmt.Errorf("verifying full check: status %d", fr.status)
	case !bytes.Equal(fr.body, dr.body):
		verr = fmt.Errorf("delta body differs from the plain full check after cycle %d", n)
	}
	if r.count(verr) {
		r.verifyLat.add(fr.lat)
		r.last = fr.body
	}
	return nil
}

// verifyFresh is the final oracle: a fresh session given the whole edit list
// in one batch, then checked cold, must produce the last body byte for byte.
func (r *editRun) verifyFresh(in *serveInput) error {
	if _, err := in.createSession("fresh"); err != nil {
		return err
	}
	if rep, err := in.dm.post("/v1/sessions/fresh/edit", editBody(r.edits...)); err != nil || rep.status != http.StatusOK {
		return fmt.Errorf("batch edit of the fresh session: status %d, %v", rep.status, err)
	}
	rep, err := in.dm.post(checkPath("fresh"), "")
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK || !bytes.Equal(rep.body, r.last) {
		return fmt.Errorf("final body differs from a fresh session given all %d edits (status %d)", len(r.edits), rep.status)
	}
	return nil
}

func runServeEdit(e *env, c config) (*outcome, error) {
	scale := serveScale
	if c.quick {
		scale = quickScale
	}
	in, setupS, err := repeatSetup(c.setups(),
		func() (*serveInput, error) { return e.serveSetup(scale, []string{"e"}, nil) },
		(*serveInput).teardown)
	if err != nil {
		return nil, err
	}
	return serveEdit(in, setupS, c)
}

// serveEdit runs the edit -> delta-check cycles against a ready daemon
// holding warm session e, and stops the daemon.
func serveEdit(in *serveInput, setupS float64, c config) (*outcome, error) {
	defer in.dm.stop() // error paths; the success path stops it below and counts the result
	ext, err := in.d.layerExtents()
	if err != nil {
		return nil, err
	}
	before, err := in.scrape()
	if err != nil {
		return nil, err
	}

	// In the traced pass the first half of the cycles runs without harness
	// spans and the second half with them.
	r := &editRun{status: map[int]int{}}
	stream := newEditStream(c.seed, ext)
	cycles := c.tracedOps()
	start := now()
	for n := 0; ; n++ {
		if c.trace && n >= cycles {
			break
		}
		if !c.trace && !c.fits(start, n, r.cycle) {
			break
		}
		log, plain := c.log, false
		if c.trace && n < cycles/2 {
			log, plain = nil, true
		}
		if err := r.one(in, n, stream.next(), log, plain); err != nil {
			return nil, err
		}
	}
	wall := since(start)
	after, err := in.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := in.dm.peakRSSMB() // before the fresh session below doubles the resident state
	if err != nil {
		return nil, err
	}
	r.count(r.verifyFresh(in))
	r.count(in.teardown()) // a dirty drain is a failed operation

	hash := opListHash(c.workload, c.seed, ext)
	if !c.trace {
		return &outcome{tally: r.tally, opHash: hash, metrics: metrics{
			"setup_s":        setupS,
			"op_p50_ms":      median(r.cycle),
			"ops_per_s":      float64(len(r.cycle)) / wall.Seconds(),
			"modeled_p50_ms": median(r.modeled),
			"peak_rss_mb":    rss,
		}}, nil
	}

	allCycles := append(append(samples{}, r.cycle...), r.plainCycle...)
	m := metrics{
		"synth.generate_ms":             ms(in.d.genD),
		"gdsii.write_ms":                ms(in.d.writeD),
		"client.cycle_p50_ms":           median(allCycles),
		"client.cycle_p90_ms":           p90OrZero(allCycles),
		"server.edit_p50_ms":            median(r.editLat),
		"server.overhead_p50_ms":        median(r.overhead),
		"server.verify_full_p50_ms":     median(r.verifyLat),
		"server.create_ms":              median(in.createD),
		"server.cold_check_ms":          median(in.coldD),
		"server.shed_429":               float64(r.status[429]),
		"server.timeouts_504":           float64(r.status[504]),
		"server.resident_bytes":         after.resident,
		"server.goroutines_delta":       after.goroutines - before.goroutines,
		"core.delta.planned_frac":       r.planned / float64(len(r.edits)),
		"core.delta.rules_skipped":      r.skipped,
		"core.delta.rules_restricted":   r.restricted,
		"core.delta.rules_full":         r.full,
		"core.delta.host_p50_ms":        median(r.deltaHost),
		"core.delta.m1_p50_ms":          median(r.m1Host),
		"core.delta.route_p50_ms":       median(r.routeHost),
		"geocache.flatten_hit_frac":     ratio(after.flatHits-before.flatHits, after.flatMisses-before.flatMisses),
		"geocache.rows_reused_frac":     ratio(after.rowsReused-before.rowsReused, after.rowsReq-before.rowsReq),
		"geocache.full_invalidations":   after.fullInval - before.fullInval,
		"gpu.delta_uploads":             after.deltaUp - before.deltaUp,
		"pool.sched.dispatched_chunks":  after.dispatched - before.dispatched,
		"pool.sched.self_served_chunks": after.selfServed - before.selfServed,
		"pool.sched.gated":              after.gated - before.gated,
		"ledger.harness_overhead_frac":  relDiff(median(r.cycle), median(r.plainCycle)),
	}
	if err := editProbe(context.Background(), in.d.lib, r.edits, m); err != nil {
		return nil, err
	}
	return &outcome{tally: r.tally, opHash: hash, metrics: m}, nil
}
