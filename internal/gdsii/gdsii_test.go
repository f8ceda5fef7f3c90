package gdsii

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"opendrc/internal/geom"
)

func sampleLibrary() *Library {
	return &Library{
		Version:   600,
		Name:      "testlib",
		UserUnit:  1e-3,
		MeterUnit: 1e-9,
		Structures: []*Structure{
			{
				Name: "INV_X1",
				Boundaries: []Boundary{
					{Layer: 1, DataType: 0, XY: []geom.Point{
						geom.Pt(0, 0), geom.Pt(0, 100), geom.Pt(50, 100), geom.Pt(50, 0),
					}},
					{Layer: 2, DataType: 0, XY: []geom.Point{
						geom.Pt(10, 10), geom.Pt(10, 90), geom.Pt(40, 90), geom.Pt(40, 10),
					}},
				},
				Paths: []Path{
					{Layer: 3, Width: 20, PathType: PathExtended, XY: []geom.Point{
						geom.Pt(0, 50), geom.Pt(200, 50),
					}},
				},
				Texts: []Text{
					{Layer: 20, TextType: 0, Pos: geom.Pt(25, 50), Str: "inv"},
				},
			},
			{
				Name: "TOP",
				SRefs: []SRef{
					{Name: "INV_X1", Pos: geom.Pt(1000, 0)},
					{Name: "INV_X1", Pos: geom.Pt(2000, 0), Trans: Trans{Reflect: true, AngleDeg: 180}},
					{Name: "INV_X1", Pos: geom.Pt(3000, 0), Trans: Trans{Mag: 2, AngleDeg: 90}},
				},
				ARefs: []ARef{
					{
						Name: "INV_X1", Cols: 4, Rows: 2,
						Origin: geom.Pt(0, 5000),
						ColEnd: geom.Pt(4*60, 5000),
						RowEnd: geom.Pt(0, 5000+2*110),
					},
				},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	lib := sampleLibrary()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteLibrary(lib); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", got.Warnings)
	}
	if got.Name != "testlib" || got.Version != 600 {
		t.Errorf("header: name=%q version=%d", got.Name, got.Version)
	}
	if math.Abs(got.UserUnit-1e-3) > 1e-12 || math.Abs(got.MeterUnit-1e-9) > 1e-18 {
		t.Errorf("units: %g %g", got.UserUnit, got.MeterUnit)
	}
	if len(got.Structures) != 2 {
		t.Fatalf("structures = %d", len(got.Structures))
	}
	inv := got.FindStructure("INV_X1")
	if inv == nil {
		t.Fatal("INV_X1 missing")
	}
	if len(inv.Boundaries) != 2 || len(inv.Paths) != 1 || len(inv.Texts) != 1 {
		t.Fatalf("INV_X1 elements: %d boundaries, %d paths, %d texts",
			len(inv.Boundaries), len(inv.Paths), len(inv.Texts))
	}
	if len(inv.Boundaries[0].XY) != 4 {
		t.Errorf("closing vertex not stripped: %d points", len(inv.Boundaries[0].XY))
	}
	if inv.Paths[0].PathType != PathExtended || inv.Paths[0].Width != 20 {
		t.Errorf("path attrs: %+v", inv.Paths[0])
	}
	if inv.Texts[0].Str != "inv" {
		t.Errorf("text = %q", inv.Texts[0].Str)
	}
	top := got.FindStructure("TOP")
	if top == nil || len(top.SRefs) != 3 || len(top.ARefs) != 1 {
		t.Fatalf("TOP refs wrong: %+v", top)
	}
	if !top.SRefs[1].Trans.Reflect || top.SRefs[1].Trans.AngleDeg != 180 {
		t.Errorf("sref[1] trans = %+v", top.SRefs[1].Trans)
	}
	if top.SRefs[2].Trans.Mag != 2 || top.SRefs[2].Trans.AngleDeg != 90 {
		t.Errorf("sref[2] trans = %+v", top.SRefs[2].Trans)
	}
	ar := top.ARefs[0]
	if ar.Cols != 4 || ar.Rows != 2 || ar.Origin != geom.Pt(0, 5000) {
		t.Errorf("aref = %+v", ar)
	}
}

func TestRoundTripDeterministic(t *testing.T) {
	lib := sampleLibrary()
	var a, b bytes.Buffer
	if err := NewWriter(&a).WriteLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&b).WriteLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("writer output not deterministic")
	}
	// Second round trip must be byte-identical (write→read→write).
	got, err := Read(&a)
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := NewWriter(&c).WriteLibrary(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), c.Bytes()) {
		t.Error("write→read→write changed bytes")
	}
}

func TestReadWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lib.gds")
	if err := WriteFile(path, sampleLibrary()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "testlib" {
		t.Errorf("name = %q", got.Name)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.gds")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestReal8RoundTrip(t *testing.T) {
	values := []float64{0, 1, -1, 1e-3, 1e-9, 2, 0.5, 90, 180, 270, 3.14159,
		1e6, -1e6, 1.0 / 3.0, 16, 1.0 / 16, 255.75}
	for _, v := range values {
		got := real8ToFloat64(float64ToReal8(v))
		if v == 0 {
			if got != 0 {
				t.Errorf("real8(0) = %g", got)
			}
			continue
		}
		if math.Abs(got-v)/math.Abs(v) > 1e-14 {
			t.Errorf("real8 round trip %g -> %g", v, got)
		}
	}
}

func TestReal8Property(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		// Restrict to the representable exponent range of the format.
		if v != 0 && (math.Abs(v) > 1e70 || math.Abs(v) < 1e-70) {
			return true
		}
		got := real8ToFloat64(float64ToReal8(v))
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v)/math.Abs(v) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTransOrient(t *testing.T) {
	cases := []struct {
		tr   Trans
		want geom.Orient
	}{
		{Trans{}, geom.R0},
		{Trans{AngleDeg: 90}, geom.R90},
		{Trans{AngleDeg: 180}, geom.R180},
		{Trans{AngleDeg: 270}, geom.R270},
		{Trans{AngleDeg: 360}, geom.R0},
		{Trans{Reflect: true}, geom.MXR0},
		{Trans{Reflect: true, AngleDeg: 90}, geom.MXR90},
	}
	for _, c := range cases {
		got, err := c.tr.Orient()
		if err != nil || got != c.want {
			t.Errorf("Orient(%+v) = %v, %v; want %v", c.tr, got, err, c.want)
		}
	}
	if _, err := (Trans{AngleDeg: 45}).Orient(); err == nil {
		t.Error("expected error for 45° rotation")
	}
	if _, err := (Trans{Mag: 1.5}).Magnification(); err == nil {
		t.Error("expected error for fractional magnification")
	}
	if m, err := (Trans{}).Magnification(); err != nil || m != 1 {
		t.Errorf("default magnification = %d, %v", m, err)
	}
}

func TestTruncatedStream(t *testing.T) {
	lib := sampleLibrary()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteLibrary(lib); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 3, 10, len(full) / 2, len(full) - 2} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("expected error reading stream truncated at %d", cut)
		}
	}
}

func TestGarbageStream(t *testing.T) {
	if _, err := Read(strings.NewReader("this is not gdsii at all......")); err == nil {
		t.Error("expected error for garbage input")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
	// A record claiming length < 4 is structurally invalid.
	bad := []byte{0x00, 0x02, 0x00, 0x02} // len=2 HEADER
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for invalid record length")
	}
}

func TestUnknownRecordsSkipped(t *testing.T) {
	lib := sampleLibrary()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Hand-build a library with an unknown library-level record injected.
	w.record(RecHeader, DataInt16, i16(600))
	w.record(RecBgnLib, DataInt16, make([]byte, 24))
	w.record(RecLibName, DataString, padString("x"))
	w.record(RecordType(0x7E), DataNone, nil) // vendor extension
	units := make([]byte, 0, 16)
	r1 := float64ToReal8(1e-3)
	r2 := float64ToReal8(1e-9)
	units = append(units, r1[:]...)
	units = append(units, r2[:]...)
	w.record(RecUnits, DataReal8, units)
	w.writeStructure(lib.Structures[0])
	w.record(RecEndLib, DataNone, nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read with unknown record: %v", err)
	}
	if len(got.Warnings) == 0 {
		t.Error("expected a warning for the unknown record")
	}
	if len(got.Structures) != 1 {
		t.Errorf("structures = %d", len(got.Structures))
	}
}

func TestElementValidation(t *testing.T) {
	// SREF without SNAME must fail.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.record(RecHeader, DataInt16, i16(600))
	w.record(RecBgnLib, DataInt16, make([]byte, 24))
	w.record(RecLibName, DataString, padString("x"))
	w.record(RecBgnStr, DataInt16, make([]byte, 24))
	w.record(RecStrName, DataString, padString("S"))
	w.record(RecSRef, DataNone, nil)
	w.record(RecXY, DataInt32, xyBytes([]geom.Point{geom.Pt(0, 0)}))
	w.record(RecEndEl, DataNone, nil)
	w.record(RecEndStr, DataNone, nil)
	w.record(RecEndLib, DataNone, nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("expected error for SREF without SNAME")
	}
}

func TestStructureNumElements(t *testing.T) {
	lib := sampleLibrary()
	if got := lib.Structures[0].NumElements(); got != 4 {
		t.Errorf("INV_X1 elements = %d, want 4", got)
	}
	if got := lib.Structures[1].NumElements(); got != 4 {
		t.Errorf("TOP elements = %d, want 4", got)
	}
}

func TestPathRoundTripAllEndStyles(t *testing.T) {
	xy := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	for _, pt := range []PathType{PathRound, PathExtended, PathFlush} {
		lib := &Library{
			Name: "p", UserUnit: 1e-3, MeterUnit: 1e-9,
			Structures: []*Structure{{
				Name:  "T",
				Paths: []Path{{Layer: 3, Width: 20, PathType: pt, XY: xy}},
			}},
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteLibrary(lib); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Structures[0].Paths[0].PathType != pt {
			t.Errorf("path type %v round-tripped as %v", pt, got.Structures[0].Paths[0].PathType)
		}
	}
}

func TestTextWithTransformRoundTrip(t *testing.T) {
	lib := &Library{
		Name: "t", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*Structure{{
			Name: "T",
			Texts: []Text{{
				Layer: 20, Pos: geom.Pt(5, 7), Str: "net0",
				Trans: Trans{Reflect: true, AngleDeg: 90, Mag: 2},
			}},
		}},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteLibrary(lib); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tx := got.Structures[0].Texts[0]
	if !tx.Trans.Reflect || tx.Trans.AngleDeg != 90 || tx.Trans.Mag != 2 {
		t.Errorf("text trans = %+v", tx.Trans)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	// A boundary with enough vertices to overflow the 16-bit record length
	// must fail loudly at write time, not emit a corrupt stream.
	pts := make([]geom.Point, 9000)
	for i := range pts {
		pts[i] = geom.Pt(int64(i), int64(i%2))
	}
	lib := &Library{
		Name: "big",
		Structures: []*Structure{{
			Name:       "T",
			Boundaries: []Boundary{{Layer: 1, XY: pts}},
		}},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteLibrary(lib); err == nil {
		t.Error("oversized XY record accepted")
	}
}
