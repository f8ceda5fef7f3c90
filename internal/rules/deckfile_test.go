package rules

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"opendrc/internal/layout"
)

const sampleDeck = `
# BEOL evaluation deck
layer M1 19
layer M2 20
layer V1 21

rule M1.W.1     width       M1      18
rule M1.S.1     spacing     M1      18
rule M2.S.2     spacing     M2      20  prl 100 26
rule M1.A.1     area        M1      500
rule M1.RECT.1  rectilinear M1
rule V1.EN.1    enclosure   V1  M1  5
rule L30.W.1    width       30      24   # numeric layer reference
`

func TestParseDeck(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	if len(deck) != 7 {
		t.Fatalf("rules = %d", len(deck))
	}
	byID := map[string]Rule{}
	for _, r := range deck {
		byID[r.ID] = r
	}
	if r := byID["M1.W.1"]; r.Kind != Width || r.Layer != layout.LayerM1 || r.Min != 18 {
		t.Errorf("M1.W.1 = %+v", r)
	}
	if r := byID["M2.S.2"]; r.Kind != Spacing || r.PRLLength != 100 || r.PRLMin != 26 {
		t.Errorf("M2.S.2 = %+v", r)
	}
	if r := byID["V1.EN.1"]; r.Kind != Enclosure || r.Outer != layout.LayerM1 || r.Min != 5 {
		t.Errorf("V1.EN.1 = %+v", r)
	}
	if r := byID["L30.W.1"]; r.Layer != layout.Layer(30) || r.Min != 24 {
		t.Errorf("L30.W.1 = %+v", r)
	}
}

func TestParseDeckErrors(t *testing.T) {
	bad := []string{
		"bogus directive",
		"layer M1",                       // missing number
		"layer M1 notanumber",            // bad number
		"rule X width",                   // missing layer
		"rule X width M9 18",             // undeclared symbolic layer
		"rule X width 19",                // missing value
		"rule X frobnicate 19 18",        // unknown kind
		"rule X width 19 18 extra",       // trailing tokens
		"rule X enclosure 21",            // missing outer
		"rule X enclosure 21 19",         // missing value
		"rule X width 19 18 prl 100 24",  // prl on width
		"rule X spacing 19 18 prl 10 10", // PRLMin <= Min (validation)
		"rule X width 19 0",              // invalid minimum (validation)
		"rule X spacing 19 18 prl 0 24",  // PRLMin without PRLLength (validation)
		"rule X coverage 21 19",          // unknown kind
		"rule X overlap 21 19 300",       // unknown kind
	}
	for _, in := range bad {
		// The second line is the bad one: the error must name it.
		_, err := ParseDeck(strings.NewReader("layer M1 19\n" + in))
		if err == nil {
			t.Errorf("accepted bad deck line %q", in)
		} else if !strings.Contains(err.Error(), "deck line 2:") {
			t.Errorf("%q: error does not name its line: %v", in, err)
		}
	}
}

func TestParseDeckDuplicateRule(t *testing.T) {
	dup := `
layer M1 19
layer M2 20
rule M1.W.1 width M1 18
rule M1.W.2 width M1 24
`
	_, err := ParseDeck(strings.NewReader(dup))
	if err == nil {
		t.Fatal("accepted deck with two width rules on the same layer")
	}
	if !strings.Contains(err.Error(), "duplicates") {
		t.Errorf("error does not name the duplicate: %v", err)
	}

	// Same kind on different layers, different layer pairs, or different
	// PRL conditions are all legitimate.
	ok := `
layer M1 19
layer M2 20
layer V1 21
rule M1.W.1 width M1 18
rule M2.W.1 width M2 20
rule M1.S.1 spacing M1 18
rule M1.S.2 spacing M1 20 prl 100 26
rule V1.EN.1 enclosure V1 M1 5
rule V1.EN.2 enclosure V1 M2 6
`
	if _, err := ParseDeck(strings.NewReader(ok)); err != nil {
		t.Errorf("rejected legitimate deck: %v", err)
	}
}

func TestDeckRoundTrip(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, deck)
}

// checkRoundTrip writes deck, parses it back and requires every rule's file
// fields unchanged.
func checkRoundTrip(t *testing.T, deck Deck) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDeck(&buf, deck); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	again, err := ParseDeck(&buf)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if len(again) != len(deck) {
		t.Fatalf("round trip lost rules: %d vs %d\n%s", len(again), len(deck), text)
	}
	for i := range deck {
		a, b := deck[i], again[i]
		if a.ID != b.ID || a.Kind != b.Kind || a.Layer != b.Layer ||
			a.Outer != b.Outer || a.Min != b.Min ||
			a.PRLLength != b.PRLLength || a.PRLMin != b.PRLMin {
			t.Errorf("rule %d changed:\n%s\n%s", i, fileFields(a), fileFields(b))
		}
	}
}

// fileFields prints the fields of r the deck format carries (a named rule's
// String is just its ID).
func fileFields(r Rule) string {
	return fmt.Sprintf("%q %v layer %d outer %d min %d prl %d/%d",
		r.ID, r.Kind, r.Layer, r.Outer, r.Min, r.PRLLength, r.PRLMin)
}

// FuzzDeckFile holds the deck format to a round trip: any deck ParseDeck
// accepts, written by WriteDeck, parses back to the same rules.
func FuzzDeckFile(f *testing.F) {
	for _, line := range strings.Split(sampleDeck, "\n") {
		f.Add(line)
	}
	f.Add(sampleDeck)
	f.Add("rule X spacing 19 18 prl 0 24")
	f.Fuzz(func(t *testing.T, text string) {
		deck, err := ParseDeck(strings.NewReader(text))
		if err != nil {
			return
		}
		checkRoundTrip(t, deck)
	})
}

func TestWriteDeckCustomSkipped(t *testing.T) {
	deck := Deck{
		Layer(20).Polygons().Ensure("named", func(Obj) bool { return true }).Named("X"),
	}
	var buf bytes.Buffer
	if err := WriteDeck(&buf, deck); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# custom rule X") {
		t.Errorf("custom rule not commented: %q", buf.String())
	}
	if _, err := ParseDeck(&buf); err != nil {
		t.Errorf("comment line broke re-parse: %v", err)
	}
}
