package gdsii

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"opendrc/internal/faults"
	"opendrc/internal/geom"
)

// sampleBytes serializes the shared sample library — the seed everything in
// this file mutates.
func sampleBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteLibrary(sampleLibrary()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readBoth runs Read and the streaming reference reader (reference_test.go)
// on the same source and requires them to agree: the same error-ness and
// error text, and on success a deeply equal Library — element for element,
// Warnings in the same order. It returns Read's result.
func readBoth(t testing.TB, src func() io.Reader) (*Library, error) {
	t.Helper()
	lib, err := Read(src())
	want, wantErr := referenceRead(src())
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Read error = %v, reference error = %v", err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("Read error = %q, reference error = %q", err, wantErr)
	case err == nil && !reflect.DeepEqual(lib, want):
		t.Fatalf("Read and the reference reader disagree:\n got %+v\nwant %+v", lib, want)
	}
	return lib, err
}

// rawLibrary hand-assembles a one-structure stream around the given element
// records, for seeds no Writer would produce.
func rawLibrary(elements func(w *Writer)) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.record(RecHeader, DataInt16, i16(600))
	w.record(RecBgnLib, DataInt16, make([]byte, 24))
	w.record(RecLibName, DataString, padString("raw"))
	w.record(RecBgnStr, DataInt16, make([]byte, 24))
	w.record(RecStrName, DataString, padString("S"))
	elements(w)
	w.record(RecEndStr, DataNone, nil)
	w.record(RecEndLib, DataNone, nil)
	w.Flush()
	return buf.Bytes()
}

// FuzzReadLibrary feeds arbitrary byte streams to the GDSII reader. The
// properties under fuzz: Read never panics and never hangs — every input
// yields a library or an error — and it is indistinguishable from the
// streaming reference reader (readBoth). When a library parses, it must
// survive a write/re-read round trip, so a fuzz-found input can never crash
// the serialization path either. (The layout build has its own target,
// FuzzBuildLayout in internal/layout; importing it here would be a cycle.)
func FuzzReadLibrary(f *testing.F) {
	full := sampleBytes(f)
	f.Add(full)
	square := xyBytes([]geom.Point{geom.Pt(0, 0), geom.Pt(0, 10), geom.Pt(10, 10), geom.Pt(10, 0), geom.Pt(0, 0)})
	// A zero-length payload where the parser wants bytes (LAYER) and where
	// it does not care (XY: no points).
	f.Add(rawLibrary(func(w *Writer) {
		w.record(RecBoundary, DataNone, nil)
		w.record(RecLayer, DataInt16, nil)
		w.record(RecXY, DataInt32, nil)
		w.record(RecEndEl, DataNone, nil)
	}))
	// A record inside a structure whose length runs past EOF: the counting
	// pass must stop there, having sized for the one whole element.
	overrun := rawLibrary(func(w *Writer) {
		w.record(RecBoundary, DataNone, nil)
		w.record(RecXY, DataInt32, square)
		w.record(RecEndEl, DataNone, nil)
		w.record(RecBoundary, DataNone, nil)
		w.record(RecXY, DataInt32, square)
	})
	overrun = overrun[:len(overrun)-8-len(square)/2] // cut inside the second XY; ENDSTR/ENDLIB go too
	f.Add(bytes.Clone(overrun))
	binary.BigEndian.PutUint16(overrun[len(overrun)-len(square)/2-4:], 0xFFFC) // and make it claim 64 KiB
	f.Add(overrun)
	// An element with two XY records: the later one wins, both are counted.
	f.Add(rawLibrary(func(w *Writer) {
		w.record(RecBoundary, DataNone, nil)
		w.record(RecXY, DataInt32, xyBytes([]geom.Point{geom.Pt(5, 5)}))
		w.record(RecXY, DataInt32, square)
		w.record(RecEndEl, DataNone, nil)
		w.record(RecText, DataNone, nil)
		w.record(RecString, DataString, padString("first"))
		w.record(RecString, DataString, padString("second"))
		w.record(RecXY, DataInt32, xyBytes([]geom.Point{geom.Pt(1, 2)}))
		w.record(RecEndEl, DataNone, nil)
	}))
	// An odd-length SNAME (no NUL pad), next to its padded twin: one name.
	f.Add(rawLibrary(func(w *Writer) {
		for _, name := range [][]byte{[]byte("ODD"), padString("ODD")} {
			w.record(RecSRef, DataNone, nil)
			w.record(RecSName, DataString, name)
			w.record(RecXY, DataInt32, xyBytes([]geom.Point{geom.Pt(3, 4)}))
			w.record(RecEndEl, DataNone, nil)
		}
	}))
	// Truncations at structurally interesting offsets: inside the header,
	// at a record boundary, mid-record, just before ENDLIB.
	for _, cut := range []int{0, 1, 2, 4, 10, len(full) / 4, len(full) / 2, len(full) - 2} {
		f.Add(append([]byte(nil), full[:cut]...))
	}
	// A few deterministic single-byte corruptions of the valid stream.
	for _, pos := range []int{2, 7, 19, len(full) / 3, 2 * len(full) / 3} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xFF
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := readBoth(t, func() io.Reader { return bytes.NewReader(data) })
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteLibrary(lib); err != nil {
			t.Fatalf("re-write of parsed library failed: %v", err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-read of re-written library failed: %v", err)
		}
	})
}

// TestTruncatedReadsEveryByte cuts the valid stream at every byte offset
// through the fault harness's TruncateReader: each prefix must produce a
// clean error (or, for prefixes reaching ENDLIB, a library) — never a panic
// or a hang — and the same one the streaming reference reader produces. This
// is the chaos-suite version of TestTruncatedStream.
func TestTruncatedReadsEveryByte(t *testing.T) {
	full := sampleBytes(t)
	for cut := 0; cut < len(full); cut++ {
		lib, err := readBoth(t, func() io.Reader {
			return faults.TruncateReader(bytes.NewReader(full), int64(cut))
		})
		if err == nil && lib == nil {
			t.Fatalf("cut=%d: no error and no library", cut)
		}
	}
	// The whole stream still parses through the (non-truncating) reader.
	if _, err := readBoth(t, func() io.Reader {
		return faults.TruncateReader(bytes.NewReader(full), int64(len(full)))
	}); err != nil {
		t.Fatalf("full stream through TruncateReader: %v", err)
	}
}

// TestReadErrorSurfacesWhereStreamingMetIt cuts the stream at every offset
// with a source that fails instead of ending: Read slurps its input first,
// but must still report what a record-at-a-time reader would — a parse error
// in the bytes before the failure, else the source's own error, wrapped the
// same way.
func TestReadErrorSurfacesWhereStreamingMetIt(t *testing.T) {
	full := sampleBytes(t)
	boom := errors.New("boom")
	for cut := 0; cut < len(full); cut++ {
		_, err := readBoth(t, func() io.Reader {
			return io.MultiReader(bytes.NewReader(full[:cut]), iotest.ErrReader(boom))
		})
		if !errors.Is(err, boom) {
			t.Fatalf("cut=%d: error %v does not wrap the source's", cut, err)
		}
	}
}
