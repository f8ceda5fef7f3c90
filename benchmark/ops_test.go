package main

import (
	"reflect"
	"testing"
)

var testExtents = map[int]rect{
	layerM1: {0, 0, 50000, 60000},
	layerM2: {100, 100, 49000, 59000},
	layerM3: {200, 200, 48000, 58000},
}

func takeEdits(seed uint64, n int) []editOp {
	s := newEditStream(seed, testExtents)
	out := make([]editOp, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func takeRules(seed uint64, n int) []string {
	s := newRuleStream(seed)
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// The same seed names the same op list; another seed names another.
func TestOpListDeterministic(t *testing.T) {
	if a, b := takeEdits(7, 300), takeEdits(7, 300); !reflect.DeepEqual(a, b) {
		t.Error("edit stream differs between two runs of one seed")
	}
	if a, b := takeRules(7, 300), takeRules(7, 300); !reflect.DeepEqual(a, b) {
		t.Error("rule stream differs between two runs of one seed")
	}
	if reflect.DeepEqual(takeEdits(7, 300), takeEdits(8, 300)) {
		t.Error("edit stream ignores the seed")
	}
	if reflect.DeepEqual(takeRules(7, 300), takeRules(8, 300)) {
		t.Error("rule stream ignores the seed")
	}
	for _, w := range []string{"serve_read", "serve_edit"} {
		if opListHash(w, 7, testExtents) != opListHash(w, 7, testExtents) {
			t.Errorf("%s: op-list hash differs for one seed", w)
		}
		if opListHash(w, 7, testExtents) == opListHash(w, 8, testExtents) {
			t.Errorf("%s: op-list hash ignores the seed", w)
		}
	}
}

// Permuted blocks of three: every class gets the same count.
func TestRuleStreamBalanced(t *testing.T) {
	counts := map[string]int{}
	for _, r := range takeRules(3, 300) {
		counts[r]++
	}
	for _, r := range []string{ruleSpacing, ruleEnclosure, ruleFloor} {
		if counts[r] != 100 {
			t.Errorf("rule %s issued %d times in 300 ops, want 100", r, counts[r])
		}
	}
}

// Every edit must change geometry: inserts start inside the layer's extent
// and a delete only ever targets a wire the stream inserted and has not yet
// deleted. The mix is exactly 70 % M1 slivers.
func TestEditStreamShape(t *testing.T) {
	live := map[editOp]bool{}
	m1 := 0
	edits := takeEdits(11, 2000)
	for i, e := range edits {
		ext := testExtents[e.Layer]
		if e.XLo < ext.XLo || e.YLo < ext.YLo || e.XLo >= ext.XHi || e.YLo >= ext.YHi || e.XHi <= e.XLo || e.YHi <= e.YLo {
			t.Fatalf("edit %d %+v outside its layer extent %+v", i, e, ext)
		}
		key := e
		key.Op = ""
		switch e.Op {
		case "insert_rect":
			if e.routing() {
				live[key] = true
			} else {
				m1++
				if e.XHi-e.XLo >= 18 {
					t.Fatalf("M1 sliver %+v is not sub-min-width", e)
				}
			}
		case "delete_region":
			if !live[key] {
				t.Fatalf("edit %d deletes %+v, which is not a live inserted wire", i, e)
			}
			delete(live, key)
		default:
			t.Fatalf("edit %d: unknown op %q", i, e.Op)
		}
	}
	if m1*10 != len(edits)*7 {
		t.Errorf("%d M1 slivers in %d edits, want exactly 70 %%", m1, len(edits))
	}
}
