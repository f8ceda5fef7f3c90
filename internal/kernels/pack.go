// Package kernels implements the edge-based GPU check kernels of OpenDRC's
// parallel mode (Section IV-E) on the simulated device: polygon edges are
// packed into one flattened buffer per layer ("OpenDRC packs the edges of
// relevant polygons into a flattened array, which is transferred from the
// host memory to the GPU device memory") — and checks run either as
// a brute-force executor (one thread per polygon or pair) or as a parallel
// sweepline executor in the style of X-Check: a scan kernel that determines
// each edge's check range, then a check kernel that tests each edge against
// the edges in its range. The kernels call the same edge-pair predicates as
// the sequential mode, so both modes return identical violations.
package kernels

import "opendrc/internal/geom"

// Edges is the packed, flattened edge buffer. The host keeps each vertex
// once: Pts holds the polygons' vertices in order, and edge i runs from
// vertex i to the next vertex of its polygon, wrapping at the polygon's end.
// PolyStart gives each polygon's vertex (and so edge) range; every kernel
// knows which polygon an edge belongs to, so the wrap is always at hand.
//
// The modeled device layout is the paper's wider one — three points and a
// polygon id per edge, 52 B — and Bytes prices that; the host copy is 16 B
// per edge. Kernels only read Pts; Splice is the one writer.
type Edges struct {
	Pts       []geom.Point
	PolyStart []int32 // len = numPolys+1
}

// Pack flattens the polygons into an edge buffer. A counting pass sizes
// everything up front, so the buffer takes exactly three allocations: the
// Edges header, the vertex array and the PolyStart offsets.
func Pack(polys []geom.Polygon) *Edges {
	e := &Edges{
		Pts:       make([]geom.Point, countEdges(polys)),
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
// starting at vertex slot k.
func (e *Edges) put(k, pi int, polys []geom.Polygon) {
	for _, p := range polys {
		for i := range p.NumEdges() {
			e.Pts[k] = p.Vertex(i)
			k++
		}
		pi++
		e.PolyStart[pi] = int32(k)
	}
}

// Len returns the edge count.
func (e *Edges) Len() int { return len(e.Pts) }

// NumPolys returns the polygon count.
func (e *Edges) NumPolys() int { return len(e.PolyStart) - 1 }

// Bytes returns the buffer size for transfer modeling: the device layout's
// 6 coordinates plus a polygon id per edge, plus the offset table.
func (e *Edges) Bytes() int64 { return int64(e.Len())*(6*8+4) + int64(e.NumPolys()+1)*4 }

// PolyEdges returns the half-open edge index range of polygon p.
func (e *Edges) PolyEdges(p int) (int, int) {
	return int(e.PolyStart[p]), int(e.PolyStart[p+1])
}

// succ returns the vertex after i around polygon p: the end of edge i.
func (e *Edges) succ(p, i int) int {
	if i+1 < int(e.PolyStart[p+1]) {
		return i + 1
	}
	return int(e.PolyStart[p])
}

// Edge returns edge i, which belongs to polygon p.
func (e *Edges) Edge(p, i int) geom.Edge {
	return geom.Edge{P0: e.Pts[i], P1: e.Pts[e.succ(p, i)]}
}

// NextEdge returns the edge following i around its polygon p (P1 -> P2).
func (e *Edges) NextEdge(p, i int) geom.Edge { return e.Edge(p, e.succ(p, i)) }
