package core

import (
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// Results across time (DESIGN.md §17). A resident session keeps one record
// per rule: what the rule's last successful run produced, stamped with the
// version of every layer it read. While the stamp is current a plain check
// replays the record and a delta check retains it; a record exactly the
// pending batch of dirt behind is the retained stream of a restricted run;
// anything older executes and re-records (Session.planCheck).

// ruleKey is a rule's value: every field of rules.Rule — ID included, so a
// renamed rule is a different rule — with the Custom predicate reduced to its
// code pointer. Predicates are pure functions of their rules.Obj: the delta
// skip and the per-definition marker replay already assume it, and it is what
// lets two decks built by the same constructor share a record. Two closures
// of one function literal share a code pointer; a predicate whose verdict
// depends on captured state must carry that state in its rule's ID or Desc.
type ruleKey struct {
	id, desc               string
	kind                   rules.Kind
	layer, outer           layout.Layer
	min, prlLength, prlMin int64
	pred                   uintptr
}

func keyOf(r rules.Rule) ruleKey {
	k := ruleKey{id: r.ID, desc: r.Desc, kind: r.Kind, layer: r.Layer, outer: r.Outer,
		min: r.Min, prlLength: r.PRLLength, prlMin: r.PRLMin}
	if r.Pred != nil {
		k.pred = reflect.ValueOf(r.Pred).Pointer()
	}
	return k
}

// ruleRecord is one rule's last successful result. It is immutable once
// committed (a re-run commits a new record), so plans may hold it unlocked.
type ruleRecord struct {
	key        ruleKey
	vers       [2]uint64         // Session.ver of the rule's Inputs at the run
	violations []rules.Violation // in rules.Less order; own backing array, never a Report's

	// A full record also holds what a complete run wrote besides violations —
	// the Stats fields of its executor and its tape (parallel mode) — and
	// replays into a plain check. Device provision is in neither: the tape's
	// marks say where the rule needed its layers and buffers, and whether a
	// replay uploads, reuses or copies is decided, and counted, when it
	// replays. A restricted run refreshes the violations only.
	full  bool
	stats Stats
	tape  gpu.Tape
}

// bytes estimates the record's retained size: its violations, its device
// commands (tapeCmdBytes approximates gpu's unexported command) and itself.
func (rec *ruleRecord) bytes() int64 {
	const tapeCmdBytes = 96
	return int64(len(rec.violations))*int64(unsafe.Sizeof(rules.Violation{})) +
		int64(rec.tape.Len())*tapeCmdBytes + int64(unsafe.Sizeof(*rec))
}

// maxRuleRecords bounds a session's record store; past it the least recently
// consulted record goes. A deck larger than the bound still checks correctly,
// it just re-executes what was evicted.
const maxRuleRecords = 1024

// recordStore is the session's rule records: looked up by key — ranged only
// by widen, over lru — least-recently-used first in lru. The session lock already serialises every
// user; the mutex is what lets odrc-lint check that.
type recordStore struct {
	mu    sync.Mutex
	byKey map[ruleKey]*ruleRecord //odrc:guardedby mu
	lru   []*ruleRecord           //odrc:guardedby mu
	size  int64                   //odrc:guardedby mu
}

// get returns the key's record (nil when none) and marks it most recently
// used.
func (st *recordStore) get(k ruleKey) *ruleRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := st.byKey[k]
	if rec != nil {
		i := slices.Index(st.lru, rec)
		st.lru = append(slices.Delete(st.lru, i, i+1), rec)
	}
	return rec
}

// put commits rec in place of its key's previous record, evicting from the
// cold end past the bound.
func (st *recordStore) put(rec *ruleRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.byKey == nil {
		st.byKey = make(map[ruleKey]*ruleRecord)
	}
	if old := st.byKey[rec.key]; old != nil {
		i := slices.Index(st.lru, old)
		st.lru = slices.Delete(st.lru, i, i+1)
		st.size -= old.bytes()
	}
	st.byKey[rec.key] = rec
	st.lru = append(st.lru, rec)
	st.size += rec.bytes()
	for len(st.lru) > maxRuleRecords {
		cold := st.lru[0]
		st.lru = slices.Delete(st.lru, 0, 1)
		delete(st.byKey, cold.key)
		st.size -= cold.bytes()
	}
}

// reset drops every record.
func (st *recordStore) reset() {
	st.mu.Lock()
	st.byKey, st.lru, st.size = nil, nil, 0
	st.mu.Unlock()
}

// widen returns r grown to the marker box of every recorded violation, of a
// rule reading layer l, that r meets.
func (st *recordStore) widen(l layout.Layer, r geom.Rect) geom.Rect {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := r
	for _, rec := range st.lru {
		in := rules.Rule{Kind: rec.key.kind, Layer: rec.key.layer, Outer: rec.key.outer}.Inputs()
		if !slices.Contains(in, l) {
			continue
		}
		for i := range rec.violations {
			if box := rec.violations[i].Marker.Box; box.Overlaps(r) {
				w = w.Union(box)
			}
		}
	}
	return w
}

// bytes returns the retained size of all records.
func (st *recordStore) bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.size
}
