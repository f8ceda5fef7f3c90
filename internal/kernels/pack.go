// Package kernels implements the edge-based GPU check kernels of OpenDRC's
// parallel mode (Section IV-E) on the simulated device: polygon edges are
// packed into flattened structure-of-arrays buffers ("OpenDRC packs the
// edges of relevant polygons into a flattened array, which is transferred
// from the host memory to the GPU device memory"), and checks run either as
// a brute-force executor (one thread per polygon or pair) or as a parallel
// sweepline executor in the style of X-Check: a scan kernel that determines
// each edge's check range, then a check kernel that tests each edge against
// the edges in its range. The kernels call the same edge-pair predicates as
// the sequential mode, so both modes return identical violations.
package kernels

import "opendrc/internal/geom"

// Edges is the packed, flattened edge buffer: one entry per directed polygon
// edge. X2/Y2 hold the vertex after P1, so each entry also describes the
// corner at P1 (needed by the diagonal-spacing test). Poly maps the edge to
// its owning polygon index; PolyStart gives each polygon's edge range.
type Edges struct {
	X0, Y0, X1, Y1, X2, Y2 []int64
	Poly                   []int32
	PolyStart              []int32 // len = numPolys+1
}

// Pack flattens the polygons into an edge buffer. A counting pass sizes
// everything up front, so the seven parallel slices are written by index
// into exactly four allocations: the Edges header, one contiguous backing
// array carved into the six coordinate slices, the Poly ids, and the
// PolyStart offsets. The contiguous coordinate backing is also the transfer
// layout: the single async "edges" copy the device upload path models is one
// block of 6·n coordinates followed by the two index tables, which is what
// Bytes() prices.
func Pack(polys []geom.Polygon) *Edges {
	total := countEdges(polys)
	coords := make([]int64, 6*total)
	e := &Edges{
		X0:        coords[0*total : 1*total : 1*total],
		Y0:        coords[1*total : 2*total : 2*total],
		X1:        coords[2*total : 3*total : 3*total],
		Y1:        coords[3*total : 4*total : 4*total],
		X2:        coords[4*total : 5*total : 5*total],
		Y2:        coords[5*total : 6*total : 6*total],
		Poly:      make([]int32, total),
		PolyStart: make([]int32, len(polys)+1),
	}
	e.put(0, 0, polys)
	return e
}

func countEdges(polys []geom.Polygon) int {
	total := 0
	for _, p := range polys {
		total += p.NumEdges()
	}
	return total
}

// put writes polys into the (already sized) buffer as polygons pi, pi+1, …
// starting at edge slot k.
func (e *Edges) put(k, pi int, polys []geom.Polygon) {
	for _, p := range polys {
		n := p.NumEdges()
		for i := 0; i < n; i++ {
			a := p.Vertex(i)
			b := p.Vertex((i + 1) % n)
			c := p.Vertex((i + 2) % n)
			e.X0[k] = a.X
			e.Y0[k] = a.Y
			e.X1[k] = b.X
			e.Y1[k] = b.Y
			e.X2[k] = c.X
			e.Y2[k] = c.Y
			e.Poly[k] = int32(pi)
			k++
		}
		pi++
		e.PolyStart[pi] = int32(k)
	}
}

// Len returns the edge count.
func (e *Edges) Len() int { return len(e.X0) }

// NumPolys returns the polygon count.
func (e *Edges) NumPolys() int { return len(e.PolyStart) - 1 }

// Bytes returns the buffer size for transfer modeling: 6 coordinates plus a
// polygon id per edge, plus the offset table.
func (e *Edges) Bytes() int64 { return edgeBytes(e.Len(), e.NumPolys()) }

func edgeBytes(edges, polys int) int64 {
	return int64(edges)*(6*8+4) + int64(polys+1)*4
}

// Edge returns the i-th packed edge.
func (e *Edges) Edge(i int) geom.Edge {
	return geom.Edge{P0: geom.Pt(e.X0[i], e.Y0[i]), P1: geom.Pt(e.X1[i], e.Y1[i])}
}

// NextEdge returns the edge following i around its polygon (P1 -> P2).
func (e *Edges) NextEdge(i int) geom.Edge {
	return geom.Edge{P0: geom.Pt(e.X1[i], e.Y1[i]), P1: geom.Pt(e.X2[i], e.Y2[i])}
}

// PolyEdges returns the half-open edge index range of polygon p.
func (e *Edges) PolyEdges(p int) (int, int) {
	return int(e.PolyStart[p]), int(e.PolyStart[p+1])
}

// Slice returns a view of polygons [p0, p1) as an Edges buffer of its own:
// coordinate arrays are shared (no copy — the row kernels address ranges of
// the single transferred buffer), while the small Poly/PolyStart index
// tables are rebased.
func (e *Edges) Slice(p0, p1 int) *Edges {
	elo, ehi := int(e.PolyStart[p0]), int(e.PolyStart[p1])
	out := &Edges{
		X0: e.X0[elo:ehi], Y0: e.Y0[elo:ehi],
		X1: e.X1[elo:ehi], Y1: e.Y1[elo:ehi],
		X2: e.X2[elo:ehi], Y2: e.Y2[elo:ehi],
		Poly:      make([]int32, ehi-elo),
		PolyStart: make([]int32, p1-p0+1),
	}
	for i := elo; i < ehi; i++ {
		out.Poly[i-elo] = e.Poly[i] - int32(p0)
	}
	for p := p0; p <= p1; p++ {
		out.PolyStart[p-p0] = e.PolyStart[p] - int32(elo)
	}
	return out
}
