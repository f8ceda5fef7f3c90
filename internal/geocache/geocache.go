// Package geocache is OpenDRC's per-run geometry reuse layer. A check run
// touches each layer once per *rule*, but the expensive host-side geometry
// work — instance-expanding the layer straight into the flattened edge
// buffer and its per-polygon boxes (layout.FillLayer) — depends only on the
// layer. The Cache memoizes it per layer, so N rules sharing a layer cost one
// flatten; the paper's "flattened once" claim (Section V-C) then holds
// across the whole deck, not just within one rule. The
// downstream derivations — the MBR table and the adaptive row partition
// (keyed additionally by the rule's interaction reach) — are memoized the
// same way, so the engine's prefetcher can compute a rule's entire host prep
// while the previous rule's kernels execute. A layer record is its packed
// edges and boxes plus those derivations; instance records
// (layout.PlacedPoly) exist only for a caller that asks for them (Flatten).
//
// Contract:
//
//   - One Cache serves one run over one layout. Results are computed at most
//     once per layer (single-flight: concurrent callers — e.g. the engine's
//     rule prefetcher — block on the first computation).
//   - Returned slices and buffers are SHARED and IMMUTABLE. Callers must not
//     write elements or sort them in place; the odrc-lint sharedbuf checker
//     enforces this outside the producing packages.
//   - Errors are cached like results: a flatten that trips the flatten-polys
//     budget or hits an injected fault fails every rule sharing that layer
//     with the same error, deterministically, while rules on other layers
//     are untouched. A cancellation is the one exception: it is the
//     cancelled caller's, and the next lookup computes the entry again.
//   - A panic during computation is captured as a *pool.PanicError and
//     cached as the entry's error, so the engine's per-rule guard still
//     reports it as a panic with the original stack.
//   - Everything known about a layer lives in one resident record. Between
//     checks a session may patch that record in place (InvalidateRegion):
//     the caller must hold whatever serializes its checks and have no
//     lookup in flight, because a patch rewrites the shared slices that
//     earlier lookups returned. A record holding instance records is never
//     patched, only dropped, so their shapes never see their vertices move.
//     Within a check the record is immutable.
package geocache

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"unsafe"

	"opendrc/internal/budget"
	"opendrc/internal/geom"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/pool"
)

// Stats counts cache traffic. Totals are deterministic for a fixed deck:
// misses equal the number of distinct layers computed and hits equal the
// remaining calls, independent of which caller (rule path or prefetcher)
// arrived first.
type Stats struct {
	FlattenHits, FlattenMisses int64
	PackHits, PackMisses       int64
	// Region-invalidation traffic (see InvalidateRegion). Segmented counts
	// calls that patched a layer's record in place; Full counts calls that
	// degenerated to a whole-layer drop. Each patch keeps RowsReused rows of
	// the segmenting partition untouched, re-queries RowsRequeried dirty ones
	// from the hierarchy, and splices PatchedPolys re-queried polygons in at
	// the tail.
	SegmentedInvalidations, FullInvalidations int64
	RowsReused, RowsRequeried                 int64
	PatchedPolys                              int64
}

// FaultHook is the injection seam consulted before each flatten computation
// (the engine wires it to faults.SiteFlatten).
type FaultHook func(ctx context.Context, l layout.Layer) error

// Event describes one cache lookup: Op names the table ("flatten", "pack",
// "mbrs", "rows", "table"), Key the entry, Hit whether a prior computation
// was reused. Events carry no caller identity, so for a fixed deck the
// event multiset is deterministic even though prefetch racing reorders
// which lookup hits.
type Event struct {
	Op  string
	Key string
	Hit bool
}

// EventHook observes cache lookups (the engine wires it to the trace
// recorder's geocache track). The hook runs outside the cache lock.
type EventHook func(Event)

// slot is one single-flight derivation of a layer record.
type slot[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// filled is a slot whose value is already known.
func filled[T any](v T) *slot[T] {
	s := &slot[T]{done: make(chan struct{}), val: v}
	close(s.done)
	return s
}

// ready reports whether the slot holds a successfully computed value.
func (s *slot[T]) ready() bool {
	if s == nil {
		return false
	}
	select {
	case <-s.done:
		return s.err == nil
	default:
		return false
	}
}

// cancelled reports whether the slot's fill ended in a cancellation. That is
// its caller's outcome, not the layer's — a fill joining another lookup gives
// up when its caller's context ends — so the next lookup fills the slot
// afresh rather than reading it back.
func (s *slot[T]) cancelled() bool {
	select {
	case <-s.done:
		return errors.Is(s.err, context.Canceled) || errors.Is(s.err, context.DeadlineExceeded)
	default:
		return false
	}
}

// fill runs the computation. The done channel closes on every path —
// including a panic, which is cached as a *pool.PanicError so waiters cannot
// wedge.
func (s *slot[T]) fill(compute func() (T, error)) {
	defer close(s.done)
	defer func() {
		if rec := recover(); rec != nil {
			if pe, ok := rec.(*pool.PanicError); ok {
				s.err = pe
			} else {
				s.err = &pool.PanicError{Value: rec, Stack: debug.Stack()}
			}
		}
	}()
	s.val, s.err = compute()
}

// partKey identifies one adaptive partition of a layer: rules with the same
// interaction reach and algorithm produce identical rows, and the prefetcher
// warms each key while the previous rule's kernels run.
type partKey struct {
	guard int64
	alg   partition.Algorithm
}

// part is one cached row partition of a layer record.
type part struct {
	key  partKey
	rows *slot[[]partition.Row]
}

// flattened is a layer's flatten: its packed edge buffer and its polygons'
// boxes, index-aligned. Pack and MBRs hand them out. Its instance records
// exist only when Flatten asked for them; their shapes are carved from the
// buffer's vertex array, so the vertices are stored once, and no patch meets
// them (InvalidateRegion drops such a layer).
type flattened struct {
	edges *kernels.Edges
	boxes []geom.Rect
	polys []layout.PlacedPoly // nil unless Flatten built them
}

// recorded reports whether the flatten holds its instance records.
func (f flattened) recorded() bool { return len(f.polys) == f.edges.NumPolys() }

// layerRec is everything the cache knows about one layer: the flatten and
// the derivations index-aligned with it. Each is computed on first request;
// InvalidateRegion patches all of them together so they never disagree.
type layerRec struct {
	flat  *slot[flattened]
	boxes *slot[[]geom.Rect]
	edges *slot[*kernels.Edges]
	table *slot[*kernels.MBRTable]
	parts []part // row partitions, in first-request order
}

// part returns the address of the (guard, alg) partition's slot, adding an
// empty entry when the key is new.
func (r *layerRec) part(k partKey) **slot[[]partition.Row] {
	for i := range r.parts {
		if r.parts[i].key == k {
			return &r.parts[i].rows
		}
	}
	r.parts = append(r.parts, part{key: k})
	return &r.parts[len(r.parts)-1].rows
}

// Cache is the per-run layer-keyed geometry memo. The zero value is not
// usable; construct with New.
type Cache struct {
	limits  budget.Limits
	hook    FaultHook
	eventFn EventHook

	mu     sync.Mutex
	lo     *layout.Layout // bound on first use; one cache serves one layout
	layers map[layout.Layer]*layerRec
	remap  []int32 // InvalidateRegion's renumbering scratch
	stats  Stats
}

// New creates a cache enforcing the given budgets (MaxFlattenPolys applies
// to every flatten it computes).
func New(lim budget.Limits) *Cache {
	return &Cache{limits: lim, layers: make(map[layout.Layer]*layerRec)}
}

// SetFaultHook installs the fault-injection seam. Must be called before the
// first Flatten/Pack.
func (c *Cache) SetFaultHook(h FaultHook) { c.hook = h }

// SetEventHook installs the lookup observer. Must be called before the
// first lookup.
func (c *Cache) SetEventHook(h EventHook) { c.eventFn = h }

// layerKey renders a layer entry key for events.
func layerKey(l layout.Layer) string { return fmt.Sprintf("layer#%d", int(l)) }

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Resident is the host memory a cache's completed records hold, in bytes of
// the slices they keep (capacity, not length), by record kind. Shared arrays
// count once: a table's boxes are the cached MBRs, under Boxes, and the
// vertices are the packed buffer's, under Edges. Flatten counts instance
// records, which only Flatten builds: 0 for a layer no caller asked it for,
// the records alone for one that has them (their shapes hold the buffer's
// vertices).
type Resident struct {
	Flatten, Boxes, Edges, Tables, Rows int64
}

// Total is the sum over the record kinds.
func (r Resident) Total() int64 { return r.Flatten + r.Boxes + r.Edges + r.Tables + r.Rows }

// Resident sums the host bytes of every layer's completed records.
func (c *Cache) Resident() Resident {
	c.mu.Lock()
	defer c.mu.Unlock()
	var r Resident
	for _, rec := range c.layers {
		if rec.flat.ready() {
			f := rec.flat.val
			r.Flatten += int64(cap(f.polys)) * int64(unsafe.Sizeof(layout.PlacedPoly{}))
			r.Edges += int64(cap(f.edges.Pts))*int64(unsafe.Sizeof(geom.Point{})) + int64(cap(f.edges.PolyStart))*4
			r.Boxes += int64(cap(f.boxes)) * int64(unsafe.Sizeof(geom.Rect{}))
		}
		if rec.table.ready() {
			r.Tables += int64(cap(rec.table.val.XOrder)) * 4
		}
		for _, p := range rec.parts {
			if !p.rows.ready() {
				continue
			}
			r.Rows += int64(cap(p.rows.val)) * int64(unsafe.Sizeof(partition.Row{}))
			for _, row := range p.rows.val {
				r.Rows += int64(cap(row.Members)) * int64(unsafe.Sizeof(int(0)))
			}
		}
	}
	return r
}

// bind pins the cache to its layout on first use.
func (c *Cache) bind(lo *layout.Layout) {
	if c.lo == nil {
		c.lo = lo
		return
	}
	if c.lo != lo {
		panic("geocache: one Cache serves one layout")
	}
}

// lookup is the single-flight core of every accessor: it finds or creates
// the slot sel names in the layer's record, counts the hit or miss, reports
// the event (the key is only rendered when a hook listens), and either waits
// for the first caller's computation or runs it.
func lookup[T any](ctx context.Context, c *Cache, lo *layout.Layout, l layout.Layer,
	op, keySuffix string, hits, misses *int64,
	sel func(*layerRec) **slot[T], compute func() (T, error)) (T, error) {
	c.mu.Lock()
	c.bind(lo)
	rec := c.layers[l]
	if rec == nil {
		rec = &layerRec{}
		c.layers[l] = rec
	}
	p := sel(rec)
	s, hit := *p, *p != nil && !(*p).cancelled()
	if !hit {
		s = &slot[T]{done: make(chan struct{})}
		*p = s
	}
	n := misses
	if hit {
		n = hits
	}
	if n != nil {
		*n++
	}
	c.mu.Unlock()
	if c.eventFn != nil {
		c.eventFn(Event{Op: op, Key: layerKey(l) + keySuffix, Hit: hit})
	}
	if !hit {
		s.fill(compute)
		return s.val, s.err
	}
	select {
	case <-s.done:
		return s.val, s.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Flatten returns the layer's instance records, index-aligned with Pack,
// MBRs and Rows, computing them (flatten → flatten-polys budget) at most
// once. No engine path asks for them; a layer filled without them — by
// Fill, Pack or MBRs, and possibly patched since into an order no walk
// reproduces — is filled again, records and all, which drops its
// derivations. The returned slice is shared and must not be mutated.
func (c *Cache) Flatten(ctx context.Context, lo *layout.Layout, l layout.Layer) ([]layout.PlacedPoly, error) {
	for {
		f, err := c.flatten(ctx, lo, l, true)
		if err != nil || f.recorded() {
			return f.polys, err
		}
		// This lookup joined a fill without records; the next one refills.
	}
}

// Fill is the flatten lookup without instance records, counted as one: it
// fills the layer's record — the packed edge buffer and the per-polygon
// boxes, from one walk of the hierarchy — at most once and returns the
// buffer, which is shared and must not be mutated.
func (c *Cache) Fill(ctx context.Context, lo *layout.Layout, l layout.Layer) (*kernels.Edges, error) {
	f, err := c.flatten(ctx, lo, l, false)
	return f.edges, err
}

// flatten is the flatten lookup. Its fill walks the hierarchy once, into the
// packed buffer and the boxes (layout.FillLayer) and, when records are asked
// for, into records whose shapes are carved from the buffer's vertex array.
func (c *Cache) flatten(ctx context.Context, lo *layout.Layout, l layout.Layer, records bool) (flattened, error) {
	return lookup(ctx, c, lo, l, "flatten", "", &c.stats.FlattenHits, &c.stats.FlattenMisses,
		func(r *layerRec) **slot[flattened] {
			if records && r.flat.ready() && !r.flat.val.recorded() {
				*r = layerRec{} // start the layer over (see Flatten)
			}
			return &r.flat
		},
		func() (flattened, error) {
			if c.hook != nil {
				if err := c.hook(ctx, l); err != nil {
					return flattened{}, err
				}
			}
			fl := lo.FillLayer(l, records)
			f := flattened{edges: &kernels.Edges{Pts: fl.Pts, PolyStart: fl.PolyStart}, boxes: fl.Boxes, polys: fl.Polys}
			if err := budget.Check("flatten-polys", int64(f.edges.NumPolys()), c.limits.MaxFlattenPolys); err != nil {
				return flattened{}, err
			}
			return f, nil
		})
}

// Pack returns the layer's packed edge buffer in the canonical flatten
// order: the one the flatten filled. The returned buffer is shared and must
// not be mutated.
func (c *Cache) Pack(ctx context.Context, lo *layout.Layout, l layout.Layer) (*kernels.Edges, error) {
	return lookup(ctx, c, lo, l, "pack", "", &c.stats.PackHits, &c.stats.PackMisses,
		func(r *layerRec) **slot[*kernels.Edges] { return &r.edges },
		func() (*kernels.Edges, error) {
			f, err := c.flatten(ctx, lo, l, false)
			return f.edges, err
		})
}

// MBRs returns the per-polygon bounding boxes of the layer's flatten, index-
// aligned with Pack's buffer: the ones the flatten filled. The returned
// slice is shared and must not be mutated.
func (c *Cache) MBRs(ctx context.Context, lo *layout.Layout, l layout.Layer) ([]geom.Rect, error) {
	return lookup(ctx, c, lo, l, "mbrs", "", nil, nil,
		func(r *layerRec) **slot[[]geom.Rect] { return &r.boxes },
		func() ([]geom.Rect, error) {
			f, err := c.flatten(ctx, lo, l, false)
			return f.boxes, err
		})
}

// Rows returns the layer's adaptive row partition for the given interaction
// reach and algorithm, computed (via MBRs → partition.Rows) at most once per
// (layer, guard, alg). Rules sharing a reach share the partition outright;
// rules with distinct reaches still benefit because the prefetcher computes
// the entry off the critical path. The returned rows (including each
// Members slice) are shared and must not be mutated.
func (c *Cache) Rows(ctx context.Context, lo *layout.Layout, l layout.Layer, guard int64, alg partition.Algorithm) ([]partition.Row, error) {
	suffix := ""
	if c.eventFn != nil {
		suffix = fmt.Sprintf("/reach=%d/alg=%d", guard, int(alg))
	}
	return lookup(ctx, c, lo, l, "rows", suffix, nil, nil,
		func(r *layerRec) **slot[[]partition.Row] { return r.part(partKey{guard, alg}) },
		func() ([]partition.Row, error) {
			boxes, err := c.MBRs(ctx, lo, l)
			if err != nil {
				return nil, err
			}
			return partition.Rows(boxes, guard, alg), nil
		})
}

// Table returns the layer's device-upload MBR table — the per-polygon MBR
// coordinate arrays plus the global (XLo, index) x-order — built from the
// cached MBRs at most once. The engine uploads it alongside the resident
// edge buffer so pair-discovery kernels read it instead of re-deriving MBRs
// on the device per rule. The returned table is shared and must not be
// mutated.
func (c *Cache) Table(ctx context.Context, lo *layout.Layout, l layout.Layer) (*kernels.MBRTable, error) {
	return lookup(ctx, c, lo, l, "table", "", nil, nil,
		func(r *layerRec) **slot[*kernels.MBRTable] { return &r.table },
		func() (*kernels.MBRTable, error) {
			boxes, err := c.MBRs(ctx, lo, l)
			if err != nil {
				return nil, err
			}
			return kernels.NewMBRTable(boxes), nil
		})
}

// Invalidate drops the resident records of the given layers — flatten,
// pack, MBRs, row partitions, and device-upload table — so the next lookup
// recomputes them; with no layers it drops every record. The cache outlives
// a single run inside a resident session, and Invalidate is the session's
// hook for layouts mutated in place between checks. In-flight computations
// are unaffected: their waiters hold the slot pointers and resolve
// normally, while post-invalidate lookups start a fresh record.
func (c *Cache) Invalidate(layers ...layout.Layer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(layers) == 0 {
		clear(c.layers)
	}
	for _, l := range layers {
		delete(c.layers, l)
	}
}
