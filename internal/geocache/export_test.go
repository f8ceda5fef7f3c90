package geocache

import (
	"unsafe"

	"opendrc/internal/geom"
)

// ringData returns the address of p's first vertex, so a test can tell
// which array a shape's ring lives in. A Polygon is its vertex slice and
// nothing else; the size check turns a change to that into a compile error.
func ringData(p geom.Polygon) *geom.Point {
	var _ [unsafe.Sizeof(p) - unsafe.Sizeof([]geom.Point(nil))]struct{}
	var _ [unsafe.Sizeof([]geom.Point(nil)) - unsafe.Sizeof(p)]struct{}
	return unsafe.SliceData(*(*[]geom.Point)(unsafe.Pointer(&p)))
}
