package gdsii

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"opendrc/internal/geom"
)

// This file keeps the streaming reader the package shipped before the
// in-memory one, verbatim but for its names: it is the reference the
// differential tests (fuzz_test.go) hold Read to — same error text, same
// Library, same Warnings order, on every input.

// refRecord is one decoded GDSII record.
type refRecord struct {
	typ  RecordType
	dt   DataType
	data []byte
	pos  int64 // byte offset of the record header, for diagnostics
}

// refRecordReader streams records from r, reusing its payload buffer.
type refRecordReader struct {
	br  *bufio.Reader
	pos int64
	buf []byte
}

func newRefRecordReader(r io.Reader) *refRecordReader {
	return &refRecordReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// next reads the next record. io.EOF is returned cleanly at a record
// boundary; a truncated record yields io.ErrUnexpectedEOF.
func (rr *refRecordReader) next() (refRecord, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rr.br, hdr[:1]); err != nil {
		if err == io.EOF {
			return refRecord{}, io.EOF
		}
		return refRecord{}, err
	}
	if _, err := io.ReadFull(rr.br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return refRecord{}, err
	}
	length := int(binary.BigEndian.Uint16(hdr[0:2]))
	if length < 4 {
		return refRecord{}, fmt.Errorf("gdsii: record at offset %d has invalid length %d", rr.pos, length)
	}
	payload := length - 4
	if cap(rr.buf) < payload {
		rr.buf = make([]byte, payload)
	}
	data := rr.buf[:payload]
	if _, err := io.ReadFull(rr.br, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return refRecord{}, err
	}
	rec := refRecord{
		typ:  RecordType(hdr[2]),
		dt:   DataType(hdr[3]),
		data: data,
		pos:  rr.pos,
	}
	rr.pos += int64(length)
	return rec, nil
}

func (r refRecord) int16At(i int) int16 {
	return int16(binary.BigEndian.Uint16(r.data[2*i:]))
}

func (r refRecord) int32At(i int) int32 {
	return int32(binary.BigEndian.Uint32(r.data[4*i:]))
}

func (r refRecord) numInt32s() int { return len(r.data) / 4 }

func (r refRecord) real8At(i int) float64 {
	var b [8]byte
	copy(b[:], r.data[8*i:8*i+8])
	return real8ToFloat64(b)
}

func (r refRecord) str() string {
	b := r.data
	// GDSII pads strings to even length with a NUL.
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}

func (r refRecord) points() []geom.Point {
	n := r.numInt32s() / 2
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Pt(int64(r.int32At(2*i)), int64(r.int32At(2*i+1)))
	}
	return pts
}

// refParser holds decode state for one library.
type refParser struct {
	rr  *refRecordReader
	lib *Library
}

// referenceRead parses a GDSII library from r, record by record.
func referenceRead(r io.Reader) (*Library, error) {
	p := &refParser{rr: newRefRecordReader(r), lib: &Library{}}
	if err := p.parseLibrary(); err != nil {
		return nil, err
	}
	return p.lib, nil
}

func (p *refParser) warnf(pos int64, format string, args ...any) {
	p.lib.Warnings = append(p.lib.Warnings,
		fmt.Sprintf("offset %d: %s", pos, fmt.Sprintf(format, args...)))
}

func (p *refParser) expect(want RecordType) (refRecord, error) {
	rec, err := p.rr.next()
	if err != nil {
		return refRecord{}, fmt.Errorf("gdsii: expected %v: %w", want, err)
	}
	if rec.typ != want {
		return refRecord{}, fmt.Errorf("gdsii: offset %d: expected %v, got %v", rec.pos, want, rec.typ)
	}
	if dt, ok := expectedDataType(rec.typ); ok && dt != rec.dt {
		p.warnf(rec.pos, "%v has data type %#x, expected %#x", rec.typ, rec.dt, dt)
	}
	return rec, nil
}

func (p *refParser) parseLibrary() error {
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
	p.lib.Name = name.str()
	for {
		rec, err := p.rr.next()
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

func (p *refParser) parseStructure() (*Structure, error) {
	name, err := p.expect(RecStrName)
	if err != nil {
		return nil, err
	}
	st := &Structure{Name: name.str()}
	for {
		rec, err := p.rr.next()
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
func (p *refParser) skipElement() error {
	for {
		rec, err := p.rr.next()
		if err != nil {
			return err
		}
		if rec.typ == RecEndEl {
			return nil
		}
	}
}

// refElementBody collects the common per-element records until ENDEL.
type refElementBody struct {
	layer, dataType, textType int16
	pathType                  int16
	width                     int32
	xy                        []geom.Point
	trans                     Trans
	sname, text               string
	cols, rows                int16
	hasXY                     bool
}

// refNeed guards the fixed-size record accessors: int16At/int32At/real8At
// index raw payload bytes, so a short record must be rejected before the
// access, not crash it (a fuzz-found failure mode on truncated files).
func refNeed(rec refRecord, n int) error {
	if len(rec.data) < n {
		return fmt.Errorf("gdsii: offset %d: %v record has %d payload bytes, need %d",
			rec.pos, rec.typ, len(rec.data), n)
	}
	return nil
}

func (p *refParser) parseElementBody(kind string) (refElementBody, error) {
	var b refElementBody
	b.trans.Mag = 0
	for {
		rec, err := p.rr.next()
		if err != nil {
			return b, fmt.Errorf("gdsii: inside %s element: %w", kind, err)
		}
		switch rec.typ {
		case RecEndEl:
			if !b.hasXY {
				return b, fmt.Errorf("gdsii: offset %d: %s element without XY", rec.pos, kind)
			}
			return b, nil
		case RecLayer:
			if err := refNeed(rec, 2); err != nil {
				return b, err
			}
			b.layer = rec.int16At(0)
		case RecDataType:
			if err := refNeed(rec, 2); err != nil {
				return b, err
			}
			b.dataType = rec.int16At(0)
		case RecTextType:
			if err := refNeed(rec, 2); err != nil {
				return b, err
			}
			b.textType = rec.int16At(0)
		case RecPathType:
			if err := refNeed(rec, 2); err != nil {
				return b, err
			}
			b.pathType = rec.int16At(0)
		case RecWidth:
			if err := refNeed(rec, 4); err != nil {
				return b, err
			}
			b.width = rec.int32At(0)
		case RecXY:
			b.xy = rec.points()
			b.hasXY = true
		case RecSName:
			b.sname = rec.str()
		case RecString:
			b.text = rec.str()
		case RecColRow:
			if err := refNeed(rec, 4); err != nil {
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
			if err := refNeed(rec, 8); err != nil {
				return b, err
			}
			b.trans.Mag = rec.real8At(0)
		case RecAngle:
			if err := refNeed(rec, 8); err != nil {
				return b, err
			}
			b.trans.AngleDeg = rec.real8At(0)
		case RecElFlags, RecPlex, RecPresentation, RecPropAttr, RecPropValue:
			// Legal but irrelevant to DRC; ignore silently.
		default:
			p.warnf(rec.pos, "skipping record %v in %s element", rec.typ, kind)
		}
	}
}

func (p *refParser) parseBoundary() (Boundary, error) {
	b, err := p.parseElementBody("BOUNDARY")
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

func (p *refParser) parsePath() (Path, error) {
	b, err := p.parseElementBody("PATH")
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

func (p *refParser) parseSRef() (SRef, error) {
	b, err := p.parseElementBody("SREF")
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

func (p *refParser) parseARef() (ARef, error) {
	b, err := p.parseElementBody("AREF")
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

func (p *refParser) parseText() (Text, error) {
	b, err := p.parseElementBody("TEXT")
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
