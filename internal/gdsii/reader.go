package gdsii

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"opendrc/internal/geom"
)

// record is one decoded GDSII record. data aliases the input bytes.
type record struct {
	typ  RecordType
	dt   DataType
	data []byte
	pos  int64 // byte offset of the record header, for diagnostics
}

func (r record) int16At(i int) int16 {
	return int16(binary.BigEndian.Uint16(r.data[2*i:]))
}

func (r record) int32At(i int) int32 {
	return int32(binary.BigEndian.Uint32(r.data[4*i:]))
}

func (r record) real8At(i int) float64 {
	return real8ToFloat64([8]byte(r.data[8*i:]))
}

// strBytes returns the record's string payload without the NULs GDSII pads
// strings to even length with.
func (r record) strBytes() []byte {
	b := r.data
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}

// parser holds decode state for one library. The whole stream is in memory:
// records are sliced out of buf in place, and each structure's slices are
// allocated once, at the sizes a header-hop pass over the structure counted.
type parser struct {
	buf     []byte
	pos     int   // offset of the next record header
	readErr error // what the source failed with after buf, if it did
	lib     *Library

	names   map[string]string // interned STRNAME/SNAME strings
	slab    []geom.Point      // the current structure's BOUNDARY/PATH points
	scratch []geom.Point      // XY of the element being parsed, when it is not kept
	text    strings.Builder   // the current structure's STRING bytes
	body    elementBody       // the element being parsed
}

// Read parses a GDSII library from r, which it reads to the end first.
func Read(r io.Reader) (*Library, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead) // an in-memory source: one allocation, no regrowth
	}
	_, err := buf.ReadFrom(r)
	return parse(buf.Bytes(), err)
}

// ReadFile parses the GDSII file at path.
func ReadFile(path string) (*Library, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lib, err := parse(data, nil)
	if err != nil {
		return nil, fmt.Errorf("gdsii: reading %s: %w", path, err)
	}
	return lib, nil
}

// parse decodes the stream held in data; readErr is the error that ended the
// read short of EOF, reported where a streaming reader would have met it.
func parse(data []byte, readErr error) (*Library, error) {
	p := &parser{buf: data, readErr: readErr, lib: &Library{}, names: make(map[string]string)}
	if err := p.parseLibrary(); err != nil {
		return nil, err
	}
	return p.lib, nil
}

// next returns the next record. io.EOF is returned cleanly at a record
// boundary; a truncated record yields io.ErrUnexpectedEOF.
func (p *parser) next() (record, error) {
	rest := p.buf[p.pos:]
	if len(rest) < 4 {
		return record{}, p.short(len(rest) == 0)
	}
	length := int(binary.BigEndian.Uint16(rest))
	if length < 4 {
		return record{}, fmt.Errorf("gdsii: record at offset %d has invalid length %d", p.pos, length)
	}
	if length > len(rest) {
		return record{}, p.short(false)
	}
	rec := record{typ: RecordType(rest[2]), dt: DataType(rest[3]), data: rest[4:length:length], pos: int64(p.pos)}
	p.pos += length
	return rec, nil
}

// short is the error for running out of input: the source's read error if it
// had one, else EOF — unexpected unless the input ends between records.
func (p *parser) short(atBoundary bool) error {
	switch {
	case p.readErr != nil:
		return p.readErr
	case atBoundary:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

func (p *parser) warnf(pos int64, format string, args ...any) {
	p.lib.Warnings = append(p.lib.Warnings,
		fmt.Sprintf("offset %d: %s", pos, fmt.Sprintf(format, args...)))
}

func (p *parser) expect(want RecordType) (record, error) {
	rec, err := p.next()
	if err != nil {
		return record{}, fmt.Errorf("gdsii: expected %v: %w", want, err)
	}
	if rec.typ != want {
		return record{}, fmt.Errorf("gdsii: offset %d: expected %v, got %v", rec.pos, want, rec.typ)
	}
	if dt, ok := expectedDataType(rec.typ); ok && dt != rec.dt {
		p.warnf(rec.pos, "%v has data type %#x, expected %#x", rec.typ, rec.dt, dt)
	}
	return rec, nil
}

// intern returns b as a string, sharing one copy among equal names: a
// structure's name recurs in every reference to it.
func (p *parser) intern(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	p.names[s] = s
	return s
}

func (p *parser) parseLibrary() error {
	hdr, err := p.expect(RecHeader)
	if err != nil {
		return err
	}
	if len(hdr.data) >= 2 {
		p.lib.Version = hdr.int16At(0)
	}
	if _, err := p.expect(RecBgnLib); err != nil {
		return err
	}
	name, err := p.expect(RecLibName)
	if err != nil {
		return err
	}
	p.lib.Name = string(name.strBytes())
	for {
		rec, err := p.next()
		if err != nil {
			return fmt.Errorf("gdsii: inside library: %w", err)
		}
		switch rec.typ {
		case RecUnits:
			if len(rec.data) < 16 {
				return fmt.Errorf("gdsii: offset %d: short UNITS record", rec.pos)
			}
			p.lib.UserUnit = rec.real8At(0)
			p.lib.MeterUnit = rec.real8At(1)
		case RecBgnStr:
			st, err := p.parseStructure()
			if err != nil {
				return err
			}
			p.lib.Structures = append(p.lib.Structures, st)
		case RecEndLib:
			return nil
		default:
			p.warnf(rec.pos, "skipping library-level record %v", rec.typ)
		}
	}
}

// presize allocates st's element slices, the point slab and the text slab
// for the structure starting at the cursor. It hops from header to header
// through the same two states the parser moves through — between elements,
// and inside one until its ENDEL — reading four bytes per record, so on a
// structure that parses the counts are exact. Lengths are untrusted: the
// pass ends at the first record that is malformed or runs past the input,
// which bounds every count by the bytes actually present.
func (p *parser) presize(st *Structure) {
	var boundaries, paths, srefs, arefs, texts, points, textBytes int
	var elem RecordType // the element the pass is inside; 0 between elements
scan:
	for pos := p.pos; pos+4 <= len(p.buf); {
		length := int(binary.BigEndian.Uint16(p.buf[pos:]))
		if length < 4 || length > len(p.buf)-pos {
			break
		}
		typ := RecordType(p.buf[pos+2])
		pos += length
		if elem != 0 {
			switch typ {
			case RecEndEl:
				elem = 0
			case RecXY:
				if elem == RecBoundary || elem == RecPath {
					points += (length - 4) / 8
				}
			case RecString:
				textBytes += length - 4
			}
			continue
		}
		switch typ {
		case RecEndStr:
			break scan
		case RecBoundary:
			boundaries++
		case RecPath:
			paths++
		case RecSRef:
			srefs++
		case RecARef:
			arefs++
		case RecText:
			texts++
		case RecNode, RecBox:
		default:
			continue // not an element
		}
		elem = typ
	}
	// Grow leaves a slice nil when there is nothing to make room for, so a
	// structure without elements of a kind keeps a nil slice for them.
	st.Boundaries = slices.Grow(st.Boundaries, boundaries)
	st.Paths = slices.Grow(st.Paths, paths)
	st.SRefs = slices.Grow(st.SRefs, srefs)
	st.ARefs = slices.Grow(st.ARefs, arefs)
	st.Texts = slices.Grow(st.Texts, texts)
	p.slab = slices.Grow([]geom.Point(nil), points)
	p.text = strings.Builder{}
	p.text.Grow(textBytes)
}

func (p *parser) parseStructure() (*Structure, error) {
	name, err := p.expect(RecStrName)
	if err != nil {
		return nil, err
	}
	st := &Structure{Name: p.intern(name.strBytes())}
	p.presize(st)
	for {
		rec, err := p.next()
		if err != nil {
			return nil, fmt.Errorf("gdsii: inside structure %q: %w", st.Name, err)
		}
		switch rec.typ {
		case RecEndStr:
			return st, nil
		case RecBoundary:
			el, err := p.parseBoundary()
			if err != nil {
				return nil, err
			}
			st.Boundaries = append(st.Boundaries, el)
		case RecPath:
			el, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			st.Paths = append(st.Paths, el)
		case RecSRef:
			el, err := p.parseSRef()
			if err != nil {
				return nil, err
			}
			st.SRefs = append(st.SRefs, el)
		case RecARef:
			el, err := p.parseARef()
			if err != nil {
				return nil, err
			}
			st.ARefs = append(st.ARefs, el)
		case RecText:
			el, err := p.parseText()
			if err != nil {
				return nil, err
			}
			st.Texts = append(st.Texts, el)
		case RecNode, RecBox:
			p.warnf(rec.pos, "skipping %v element in %q", rec.typ, st.Name)
			if err := p.skipElement(); err != nil {
				return nil, err
			}
		default:
			p.warnf(rec.pos, "skipping record %v in structure %q", rec.typ, st.Name)
		}
	}
}

// skipElement consumes records until ENDEL, for unsupported element kinds.
func (p *parser) skipElement() error {
	for {
		rec, err := p.next()
		if err != nil {
			return err
		}
		if rec.typ == RecEndEl {
			return nil
		}
	}
}

// elementBody collects the common per-element records until ENDEL.
type elementBody struct {
	layer, dataType, textType int16
	pathType                  int16
	width                     int32
	xy                        []geom.Point
	trans                     Trans
	sname, text               string
	cols, rows                int16
	hasXY                     bool
}

// need guards the fixed-size record accessors: int16At/int32At/real8At
// index raw payload bytes, so a short record must be rejected before the
// access, not crash it (a fuzz-found failure mode on truncated files).
func need(rec record, n int) error {
	if len(rec.data) < n {
		return fmt.Errorf("gdsii: offset %d: %v record has %d payload bytes, need %d",
			rec.pos, rec.typ, len(rec.data), n)
	}
	return nil
}

// points decodes an XY payload. A BOUNDARY's or PATH's points outlive the
// element, so they are appended to the structure's slab and returned as a
// slice of it, capped so that a caller's append cannot reach its neighbour;
// any other element copies the one or three points it wants out of the
// result, which is the scratch buffer the next XY overwrites.
func (p *parser) points(rec record, keep bool) []geom.Point {
	pts := p.scratch[:0]
	if keep {
		pts = p.slab
	}
	start := len(pts)
	for d := rec.data; len(d) >= 8; d = d[8:] {
		pts = append(pts, geom.Pt(
			int64(int32(binary.BigEndian.Uint32(d))), int64(int32(binary.BigEndian.Uint32(d[4:])))))
	}
	if keep {
		p.slab = pts
	} else {
		p.scratch = pts
	}
	return pts[start:len(pts):len(pts)]
}

// str copies a STRING payload into the structure's text slab, sized by
// presize, and returns the copy.
func (p *parser) str(b []byte) string {
	start := p.text.Len()
	p.text.Write(b)
	return p.text.String()[start:]
}

// parseElementBody reads the records of one element of the given kind.
func (p *parser) parseElementBody(kind RecordType) (*elementBody, error) {
	p.body = elementBody{}
	b := &p.body
	for {
		rec, err := p.next()
		if err != nil {
			return b, fmt.Errorf("gdsii: inside %v element: %w", kind, err)
		}
		switch rec.typ {
		case RecEndEl:
			if !b.hasXY {
				return b, fmt.Errorf("gdsii: offset %d: %v element without XY", rec.pos, kind)
			}
			return b, nil
		case RecLayer:
			if err := need(rec, 2); err != nil {
				return b, err
			}
			b.layer = rec.int16At(0)
		case RecDataType:
			if err := need(rec, 2); err != nil {
				return b, err
			}
			b.dataType = rec.int16At(0)
		case RecTextType:
			if err := need(rec, 2); err != nil {
				return b, err
			}
			b.textType = rec.int16At(0)
		case RecPathType:
			if err := need(rec, 2); err != nil {
				return b, err
			}
			b.pathType = rec.int16At(0)
		case RecWidth:
			if err := need(rec, 4); err != nil {
				return b, err
			}
			b.width = rec.int32At(0)
		case RecXY:
			b.xy = p.points(rec, kind == RecBoundary || kind == RecPath)
			b.hasXY = true
		case RecSName:
			b.sname = p.intern(rec.strBytes())
		case RecString:
			b.text = p.str(rec.strBytes())
		case RecColRow:
			if err := need(rec, 4); err != nil {
				return b, err
			}
			b.cols = rec.int16At(0)
			b.rows = rec.int16At(1)
		case RecSTrans:
			if len(rec.data) >= 2 {
				flags := binary.BigEndian.Uint16(rec.data)
				b.trans.Reflect = flags&STransReflect != 0
				if flags&(STransAbsMag|STransAbsAngle) != 0 {
					p.warnf(rec.pos, "absolute magnification/angle flags ignored")
				}
			}
		case RecMag:
			if err := need(rec, 8); err != nil {
				return b, err
			}
			b.trans.Mag = rec.real8At(0)
		case RecAngle:
			if err := need(rec, 8); err != nil {
				return b, err
			}
			b.trans.AngleDeg = rec.real8At(0)
		case RecElFlags, RecPlex, RecPresentation, RecPropAttr, RecPropValue:
			// Legal but irrelevant to DRC; ignore silently.
		default:
			p.warnf(rec.pos, "skipping record %v in %v element", rec.typ, kind)
		}
	}
}

func (p *parser) parseBoundary() (Boundary, error) {
	b, err := p.parseElementBody(RecBoundary)
	if err != nil {
		return Boundary{}, err
	}
	xy := b.xy
	if len(xy) >= 2 && xy[0] == xy[len(xy)-1] {
		xy = xy[:len(xy)-1] // strip the mandatory closing vertex
	}
	if len(xy) < 3 {
		return Boundary{}, fmt.Errorf("gdsii: BOUNDARY with %d distinct vertices", len(xy))
	}
	return Boundary{Layer: b.layer, DataType: b.dataType, XY: xy}, nil
}

func (p *parser) parsePath() (Path, error) {
	b, err := p.parseElementBody(RecPath)
	if err != nil {
		return Path{}, err
	}
	if len(b.xy) < 2 {
		return Path{}, fmt.Errorf("gdsii: PATH with %d vertices", len(b.xy))
	}
	return Path{
		Layer: b.layer, DataType: b.dataType,
		PathType: PathType(b.pathType), Width: b.width, XY: b.xy,
	}, nil
}

func (p *parser) parseSRef() (SRef, error) {
	b, err := p.parseElementBody(RecSRef)
	if err != nil {
		return SRef{}, err
	}
	if b.sname == "" {
		return SRef{}, fmt.Errorf("gdsii: SREF without SNAME")
	}
	if len(b.xy) != 1 {
		return SRef{}, fmt.Errorf("gdsii: SREF with %d XY points, want 1", len(b.xy))
	}
	return SRef{Name: b.sname, Trans: b.trans, Pos: b.xy[0]}, nil
}

func (p *parser) parseARef() (ARef, error) {
	b, err := p.parseElementBody(RecARef)
	if err != nil {
		return ARef{}, err
	}
	if b.sname == "" {
		return ARef{}, fmt.Errorf("gdsii: AREF without SNAME")
	}
	if len(b.xy) != 3 {
		return ARef{}, fmt.Errorf("gdsii: AREF with %d XY points, want 3", len(b.xy))
	}
	if b.cols <= 0 || b.rows <= 0 {
		return ARef{}, fmt.Errorf("gdsii: AREF with COLROW %dx%d", b.cols, b.rows)
	}
	return ARef{
		Name: b.sname, Trans: b.trans, Cols: b.cols, Rows: b.rows,
		Origin: b.xy[0], ColEnd: b.xy[1], RowEnd: b.xy[2],
	}, nil
}

func (p *parser) parseText() (Text, error) {
	b, err := p.parseElementBody(RecText)
	if err != nil {
		return Text{}, err
	}
	if len(b.xy) < 1 {
		return Text{}, fmt.Errorf("gdsii: TEXT without position")
	}
	return Text{
		Layer: b.layer, TextType: b.textType,
		Pos: b.xy[0], Str: b.text, Trans: b.trans,
	}, nil
}
