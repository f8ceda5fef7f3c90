package kernels

import "opendrc/internal/geom"

// Member-indexed kernel variants. The cross-rule geometry cache packs each
// layer once in the canonical flatten order and keeps the buffer resident on
// the device; partition rows then address *subsets* of that one buffer by
// polygon index instead of re-packing a copy per rule. Pair discovery (and
// the sweepline executor in sweep.go, member-indexed throughout) runs over
// explicit member lists. Row members are ascending canonical indices and
// every sorted order (perpendicular-coordinate views, corner x-order, MBR
// x-order) breaks ties by index, so a row's hit sequence depends on its
// members alone, not on what else the buffer holds.

// MBRTable is the device-resident derived geometry of a packed buffer: the
// per-polygon MBRs plus the global x-order over every polygon. Both depend
// only on the buffer, never on the rule — and the host has already computed
// the MBRs for the row partition — so the engine uploads the table once per
// resident layer (one small async copy), and per-rule pair discovery is the
// single scan launch. On the host the table owns only its x-order: Boxes is
// the slice it was built from, the geometry cache's MBRs.
type MBRTable struct {
	Boxes  []geom.Rect
	XOrder []int32 // every polygon, sorted by (XLo, index)
}

// Bytes is the table's upload size: four int64 MBR coordinates plus one
// int32 order entry per polygon.
func (t *MBRTable) Bytes() int64 { return int64(len(t.Boxes))*4*8 + int64(len(t.XOrder))*4 }

// PairDiscoveryTable finds, on the device, every polygon pair of a row whose
// rule-distance-expanded MBRs overlap — the MBR check pruning of Section
// IV-C as a kernel — against the layer's prebuilt MBRTable. Each row's
// x-sorted member sequence is gathered from the table's global x-order:
// (XLo, index) is a strict total order, so a stable filter of XOrder down to
// a row's members IS the row sorted by MBR x. The whole discovery is the
// single scan launch, each thread walking its member's x-window within its
// own row. Pairs are global polygon indices into the shared buffer.
func PairDiscoveryTable(s Launcher, e *Edges, t *MBRTable, rows [][]int32, min int64) [][2]int32 {
	nP := e.NumPolys()
	if nP == 0 || len(rows) == 0 {
		return nil
	}
	rowOf := make([]int32, nP)
	for i := range rowOf {
		rowOf[i] = -1
	}
	total := 0
	for ri, r := range rows {
		for _, p := range r {
			rowOf[p] = int32(ri)
		}
		total += len(r)
	}
	perRow := make([][]int32, len(rows))
	for ri, r := range rows {
		perRow[ri] = make([]int32, 0, len(r))
	}
	// Gather each row's members in XOrder sequence (fused into the scan
	// launch below: the scan's per-thread constant covers the gather read, so
	// no extra launch overhead is charged).
	for _, p := range t.XOrder {
		if ri := rowOf[p]; ri >= 0 {
			perRow[ri] = append(perRow[ri], p)
		}
	}
	order := make([]int32, 0, total)
	rowEnd := make([]int32, 0, total)
	for _, seg := range perRow {
		order = append(order, seg...)
		for range seg {
			rowEnd = append(rowEnd, int32(len(order)))
		}
	}
	// Launch executes thread bodies sequentially in tid order, so appending
	// to one shared slice produces exactly the concatenation order the old
	// per-thread lists had, without a slice header per thread or the final
	// copy.
	var out [][2]int32
	s.Launch("pair-scan", len(order), func(tid int) int64 {
		i := order[tid]
		bi := &t.Boxes[i]
		limit := bi.XHi + 2*min
		end := int(rowEnd[tid])
		var ops int64
		for k := tid + 1; k < end; k++ {
			j := order[k]
			bj := &t.Boxes[j]
			if bj.XLo > limit {
				break
			}
			ops++
			if bj.YLo <= bi.YHi+2*min && bi.YLo <= bj.YHi+2*min {
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				out = append(out, [2]int32{a, b})
			}
		}
		return ops + 1
	})
	return out
}
