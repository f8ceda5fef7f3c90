// Package opendrc is the public interface of OpenDRC-Go, a reproduction of
// "OpenDRC: An Efficient Open-Source Design Rule Checking Engine with
// Hierarchical GPU Acceleration" (DAC 2023). It mirrors the paper's Listing
// 1 usage:
//
//	db, err := opendrc.ReadGDS("design.gds")
//	if err != nil { ... }
//	e := opendrc.NewEngine(opendrc.WithMode(opendrc.Parallel))
//	err = e.AddRules(
//	    opendrc.Layer(19).Polygons().AreRectilinear(),
//	    opendrc.Layer(19).Width().GreaterThan(18),
//	    opendrc.Layer(20).Polygons().Ensure("non-empty name",
//	        func(o opendrc.Obj) bool { return o.Name != "" }),
//	)
//	report, err := e.Check(db)
//
// The sequential mode runs hierarchical cell-level sweeps on the CPU; the
// parallel mode partitions the layout into independent rows and launches
// edge-based check kernels on a simulated GPU device (see DESIGN.md for the
// simulation substitution). Both modes return identical violations.
package opendrc

import (
	"context"
	"io"

	"opendrc/internal/budget"
	"opendrc/internal/core"
	"opendrc/internal/gdsii"
	"opendrc/internal/gpu"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/trace"
)

// Layout is a loaded hierarchical layout database.
type Layout = layout.Layout

// LayerID identifies a mask layer by its GDSII layer number.
type LayerID = layout.Layer

// Rule is one design rule built through the chaining interface.
type Rule = rules.Rule

// Deck is an ordered list of rules.
type Deck = rules.Deck

// Obj is the polygon view passed to custom Ensure predicates.
type Obj = rules.Obj

// Violation is one reported design rule violation.
type Violation = rules.Violation

// Report is the result of Engine.Check.
type Report = core.Report

// RuleFailure is one isolated rule failure in a degraded report.
type RuleFailure = core.RuleFailure

// Budgets caps the resources a check may consume; a tripped budget fails
// only the offending rule (the report comes back Degraded). Zero fields
// mean unlimited.
type Budgets = budget.Limits

// ErrBudgetExceeded is the sentinel wrapped by every budget violation;
// test with errors.Is.
var ErrBudgetExceeded = budget.ErrExceeded

// Mode selects the execution branch.
type Mode = core.Mode

// Execution modes.
const (
	Sequential = core.Sequential
	Parallel   = core.Parallel
)

// ReadGDS parses a GDSII file and builds the layout database with its
// layer-wise bounding volume hierarchy.
func ReadGDS(path string) (*Layout, error) {
	lo, _, err := core.LoadGDS(path, nil)
	return lo, err
}

// ReadGDSFrom parses a GDSII stream.
func ReadGDSFrom(r io.Reader) (*Layout, error) {
	lib, err := gdsii.Read(r)
	if err != nil {
		return nil, err
	}
	return layout.FromLibrary(lib)
}

// Layer starts a rule chain for a layer, e.g. Layer(19).Width().AtLeast(18).
func Layer(l LayerID) rules.Selector { return rules.Layer(l) }

// ParseDeck reads a rule deck from the line-oriented text format (see
// internal/rules.ParseDeck for the grammar).
func ParseDeck(r io.Reader) (Deck, error) { return rules.ParseDeck(r) }

// WriteDeck serializes a deck into the text format.
func WriteDeck(w io.Writer, d Deck) error { return rules.WriteDeck(w, d) }

// Option configures an Engine.
type Option func(*core.Options)

// WithMode selects sequential or parallel execution.
func WithMode(m Mode) Option {
	return func(o *core.Options) { o.Mode = m }
}

// WithDevice overrides the simulated device model used by the parallel
// mode (default: GTX 1660 Ti, the paper's evaluation GPU).
func WithDevice(p gpu.Props) Option {
	return func(o *core.Options) { o.Device = p }
}

// WithWorkers bounds the host worker pool used by the engine's fan-out
// phases — per cell definition in the intra checks, per partition row in
// the spacing sweep (<= 0 selects GOMAXPROCS). Reports are bit-identical
// for every worker count.
func WithWorkers(n int) Option {
	return func(o *core.Options) { o.Workers = n }
}

// Tracer records a run's unified timeline — host phases, rule lifecycle,
// geometry-cache traffic, pool worker lanes, and (parallel mode) the
// simulated device's per-stream operations — exportable as Chrome-trace/
// Perfetto JSON via its WriteJSON method.
type Tracer = trace.Recorder

// NewTracer creates a run-timeline recorder on the wall clock.
func NewTracer() *Tracer { return trace.New() }

// WithTrace attaches a timeline recorder to the engine. A nil recorder
// disables tracing (the zero-cost default). Reports are bit-identical with
// tracing on or off; the recorder adds a TraceSummary to Report.Stats.
func WithTrace(rec *Tracer) Option {
	return func(o *core.Options) { o.Trace = rec }
}

// WithBudgets caps the resources a check may consume (flattened polygon
// count, packed device edges, device pool bytes). A tripped budget fails
// the offending rule with ErrBudgetExceeded and the report comes back
// Degraded; the other rules still run.
func WithBudgets(b Budgets) Option {
	return func(o *core.Options) { o.Budgets = b }
}

// Engine schedules and runs design rule checks.
type Engine struct {
	inner *core.Engine
}

// NewEngine creates an engine; the default is the sequential mode.
func NewEngine(opts ...Option) *Engine {
	var o core.Options
	for _, fn := range opts {
		fn(&o)
	}
	return &Engine{inner: core.New(o)}
}

// AddRules appends validated rules to the deck.
func (e *Engine) AddRules(rs ...Rule) error { return e.inner.AddRules(rs...) }

// Deck returns the rules added so far.
func (e *Engine) Deck() Deck { return e.inner.Deck() }

// Check runs the deck against the layout and returns the report with
// violations sorted deterministically. It runs with no deadline; use
// CheckContext to bound or cancel a run.
func (e *Engine) Check(db *Layout) (*Report, error) {
	return e.inner.CheckContext(context.Background(), db) //odrc:allow ctxflow — the facade's context-free convenience entry point, a root for callers without a ctx
}

// CheckContext is Check under a context. Cancellation is cooperative
// (checked at rule, cell, and row boundaries); a cancelled run returns a
// nil report and an error wrapping ctx.Err(). Reports remain bit-identical
// across worker counts even when rules fail and the report is Degraded.
func (e *Engine) CheckContext(ctx context.Context, db *Layout) (*Report, error) {
	return e.inner.CheckContext(ctx, db)
}

// Dedup collapses violations sharing rule, box, distance and corner flag,
// the way layout viewers merge markers. Violations differing only in Cell,
// Kind or edges collapse too; the first in canonical order survives.
func Dedup(vs []Violation) []Violation { return core.DedupViolations(vs) }

// Session pins one loaded layout's expensive check state — the cross-rule
// geometry cache and, in parallel mode, a resident simulated device whose
// layer buffers survive across checks — so repeat checks against the same
// design run at warm-cache cost. Sessions are what the odrcd daemon holds
// per loaded design; embedders serving repeat checks can hold them
// directly:
//
//	ses := opendrc.NewSession(db, opendrc.WithMode(opendrc.Parallel))
//	defer ses.Close(context.Background())
//	rep, err := ses.Check(ctx, deck)        // cold: flatten, pack, upload, execute
//	rep2, err := ses.Check(ctx, deck[2:3])  // warm: answered from the rule's record
//
// A session also keeps each rule's last result — violations, the Stats its
// executor wrote, the modeled device work — keyed by the rule's value and
// stamped with the version of the layers it read. A check replays every rule
// whose record is current and executes the rest; Edit and Invalidate put the
// records of the layers they dirty behind, InvalidateAll drops them. Custom
// predicates must therefore be pure functions of their Obj: a record is
// shared by every rule equal in all fields and in the predicate's code.
//
// Reports from a session are bit-identical to batch runs of the same deck
// in their canonical form (Report.WriteCanonicalJSON), replayed or executed;
// only cost counters and timings differ. ErrSessionClosed fails checks after
// Close.
type Session = core.Session

// ErrSessionClosed is returned by Session.Check after Session.Close.
var ErrSessionClosed = core.ErrSessionClosed

// NewSession pins a layout and engine options into a resident session. The
// options are fixed for the session's lifetime and apply to every check it
// serves.
func NewSession(db *Layout, opts ...Option) *Session {
	var o core.Options
	for _, fn := range opts {
		fn(&o)
	}
	return core.NewSession(db, o)
}
