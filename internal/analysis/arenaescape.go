package analysis

// ArenaEscape enforces the scratch-ownership rule behind PR 6's recycled
// buffers (DESIGN.md §9): memory handed out by geocache.Arena or by any
// freelist.List (the engine's shard tables and sweepline scratch) is
// SCRATCH — get, fill, use, Put, all within the run. A buffer that escapes —
// returned past the engine boundary by an exported function, stored in a
// package-level variable, or written into a Report/cache struct that
// survives the run — is recycled underneath its new owner on the next Get,
// which is exactly the cross-request report corruption a long-lived odrcd
// session would turn silent leaks into.
//
// The checker is interprocedural: per-function summaries track which results
// alias scratch and which parameters a callee stores persistently, so an
// escape that crosses any number of call boundaries is still caught, and the
// finding lands at the offending site with the full escape chain in the
// message.
var ArenaEscape = &ProgramChecker{
	Name: "arenaescape",
	Doc:  "scratch from geocache.Arena / freelist.List must not outlive the run (no exported returns, package vars, or Report/cache stores)",
	Run:  runArenaEscape,
}

func runArenaEscape(p *ProgPass) {
	for _, fi := range p.Prog.ordered {
		newEvaluator(p.Prog, fi, p).run()
	}
}
