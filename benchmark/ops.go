package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"opendrc/internal/infra"
	"opendrc/internal/layout"
)

// The op lists are drawn from infra.Rand, the splitmix64 generator that also
// seeds internal/synth: it is documented as bit-reproducible across versions,
// so a seed names the same inputs and the same op list on every commit.

// shuffle is Fisher-Yates over n elements.
func shuffle(r *infra.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Layers the edit list touches.
const (
	layerM1 = int(layout.LayerM1)
	layerM2 = int(layout.LayerM2)
	layerM3 = int(layout.LayerM3)
)

// rect is a layer's extent in the top cell, in DBU.
type rect struct{ XLo, YLo, XHi, YHi int64 }

// The three single-rule checks of serve_read's light client: a spacing
// sweep, an enclosure evaluation, and a rule that finds nothing on a tiny
// layer — the last is the pure service-path floor.
const (
	ruleSpacing   = "M1.S.1"
	ruleEnclosure = "V1.M1.EN.1"
	ruleFloor     = "M2.W.1"
)

// ruleStream yields the light client's rule ids: back-to-back seeded
// permutations of the three rules, so every class gets the same count.
type ruleStream struct {
	r     *infra.Rand
	block []string
}

func newRuleStream(seed uint64) *ruleStream { return &ruleStream{r: infra.NewRand(seed ^ 0x52554c45)} }

func (s *ruleStream) next() string {
	if len(s.block) == 0 {
		s.block = []string{ruleSpacing, ruleEnclosure, ruleFloor}
		shuffle(s.r, len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	id := s.block[0]
	s.block = s.block[1:]
	return id
}

// editOp is one edit in odrcd's POST .../edit body.
type editOp struct {
	Op    string `json:"op"`
	Layer int    `json:"layer"`
	XLo   int64  `json:"xlo"`
	YLo   int64  `json:"ylo"`
	XHi   int64  `json:"xhi"`
	YHi   int64  `json:"yhi"`
}

// routing reports whether the edit is on the top-level M2/M3 routing (the
// other class is an M1 sliver).
func (e editOp) routing() bool { return e.Layer != layerM1 }

// editStream yields serve_edit's edits: 70 % sub-min-width M1 slivers (fresh
// width/area violations, so the report keeps changing), 30 % top-level
// M2/M3 routing changes — exactly 7 and 3 in every seeded block of ten,
// because the two classes cost differently and a mix that drifted with the
// seed would move the median. A routing delete always targets a wire this
// stream inserted earlier, so every edit changes geometry (dirty_rects >= 1).
type editStream struct {
	r       *infra.Rand
	mbr     map[int]rect
	block   []bool           // the current block's remaining classes; true = routing
	pending map[int][]editOp // inserted wires not yet deleted, per layer
}

func newEditStream(seed uint64, mbr map[int]rect) *editStream {
	return &editStream{r: infra.NewRand(seed ^ 0x45444954), mbr: mbr, pending: map[int][]editOp{}}
}

// offset picks a value in [0, room), or 0 when there is no room: a smoke-test
// extent can be smaller than the rectangle placed in it.
func (s *editStream) offset(room int64) int64 {
	if room <= 0 {
		return 0
	}
	return s.r.Int63n(room)
}

// place picks a w×h rectangle inside the layer's top-cell extent.
func (s *editStream) place(layer int, w, h int64) editOp {
	m := s.mbr[layer]
	x := m.XLo + s.offset(m.XHi-m.XLo-w)
	y := m.YLo + s.offset(m.YHi-m.YLo-h)
	return editOp{Op: "insert_rect", Layer: layer, XLo: x, YLo: y, XHi: x + w, YHi: y + h}
}

func (s *editStream) next() editOp {
	if len(s.block) == 0 {
		s.block = []bool{false, false, false, false, false, false, false, true, true, true}
		shuffle(s.r, len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	routing := s.block[0]
	s.block = s.block[1:]
	if !routing {
		return s.place(layerM1, 9, 30+s.r.Int63n(60)) // min width is 18
	}
	layer := layerM2
	if s.r.Chance(0.5) {
		layer = layerM3
	}
	if q := s.pending[layer]; len(q) > 0 && s.r.Chance(0.5) {
		del := q[0]
		s.pending[layer] = q[1:]
		del.Op = "delete_region"
		return del
	}
	length := 150 + s.r.Int63n(250)
	e := s.place(layerM2, length, 30) // horizontal M2 track
	if layer == layerM3 {
		e = s.place(layerM3, 30, length) // vertical M3 column
	}
	s.pending[layer] = append(s.pending[layer], e)
	return e
}

// editBody renders one or more edits as a request body.
func editBody(edits ...editOp) string {
	b, err := json.Marshal(map[string]any{"edits": edits})
	if err != nil {
		panic(fmt.Sprintf("edit body: %v", err)) // plain ints and strings cannot fail to marshal
	}
	return string(b)
}

// hashPrefixLen is how many ops of each seeded stream the op-list hash
// covers: the measured pass is time-bounded, so only a prefix is common to
// every run of a seed.
const hashPrefixLen = 64

// opListHash fingerprints what a seed generates for a workload.
func opListHash(workload string, seed uint64, mbr map[int]rect) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", workload)
	switch workload {
	case "serve_read":
		s := newRuleStream(seed)
		for i := 0; i < hashPrefixLen; i++ {
			fmt.Fprintln(h, s.next())
		}
	case "serve_edit":
		s := newEditStream(seed, mbr)
		for i := 0; i < hashPrefixLen; i++ {
			fmt.Fprintln(h, editBody(s.next()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
