package rules

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"opendrc/internal/layout"
)

// ParseDeck reads a rule deck from the simple line-oriented text format the
// interface layer accepts ("reading design files, defining rule decks"):
//
//	# comment
//	layer M1 19                      # symbolic layer name -> GDS number
//	rule M1.W.1     width       M1        18
//	rule M1.S.1     spacing     M1        18
//	rule M1.S.2     spacing     M1        18  prl 100 24
//	rule M1.A.1     area        M1        500
//	rule M1.RECT.1  rectilinear M1
//	rule V1.EN.1    enclosure   V1  M1    5
//
// Layers may be referenced by declared symbolic names or directly by GDS
// layer number. Custom (ensures) rules cannot be expressed in a file; they
// are Go callables added through the API.
func ParseDeck(r io.Reader) (Deck, error) {
	var deck Deck
	names := map[string]layout.Layer{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) (Deck, error) {
			return nil, fmt.Errorf("deck line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "layer":
			if len(fields) != 3 {
				return fail("layer needs: layer <name> <gds-number>")
			}
			n, err := strconv.ParseInt(fields[2], 10, 16)
			if err != nil {
				return fail("bad layer number %q", fields[2])
			}
			names[fields[1]] = layout.Layer(n)
		case "rule":
			if len(fields) < 4 {
				return fail("rule needs: rule <id> <kind> <layer> ...")
			}
			rule, err := parseRule(fields[1:], names)
			if err == nil {
				err = rule.Validate()
			}
			if err != nil {
				return fail("%v", err)
			}
			deck = append(deck, rule)
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := deck.Validate(); err != nil {
		return nil, err
	}
	return deck, nil
}

func parseRule(f []string, names map[string]layout.Layer) (Rule, error) {
	id, kind := f[0], f[1]
	layerOf := func(s string) (layout.Layer, error) {
		if l, ok := names[s]; ok {
			return l, nil
		}
		n, err := strconv.ParseInt(s, 10, 16)
		if err != nil {
			return 0, fmt.Errorf("unknown layer %q (declare it with a layer directive or use the GDS number)", s)
		}
		return layout.Layer(n), nil
	}
	num := func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad number %q", s)
		}
		return v, nil
	}
	l, err := layerOf(f[2])
	if err != nil {
		return Rule{}, err
	}
	rest := f[3:]
	switch kind {
	case "width", "spacing", "area":
		if len(rest) < 1 {
			return Rule{}, fmt.Errorf("%s rule needs a minimum value", kind)
		}
		min, err := num(rest[0])
		if err != nil {
			return Rule{}, err
		}
		var rule Rule
		switch kind {
		case "width":
			rule = Layer(l).Width().AtLeast(min)
		case "spacing":
			rule = Layer(l).Spacing().AtLeast(min)
		case "area":
			rule = Layer(l).Area().AtLeast(min)
		}
		rest = rest[1:]
		if len(rest) == 3 && rest[0] == "prl" {
			if kind != "spacing" {
				return Rule{}, fmt.Errorf("prl condition only applies to spacing rules")
			}
			length, err := num(rest[1])
			if err != nil {
				return Rule{}, err
			}
			min2, err := num(rest[2])
			if err != nil {
				return Rule{}, err
			}
			rule = rule.WhenProjectionAtLeast(length, min2)
		} else if len(rest) != 0 {
			return Rule{}, fmt.Errorf("trailing tokens %v", rest)
		}
		return rule.Named(id), nil
	case "rectilinear":
		if len(rest) != 0 {
			return Rule{}, fmt.Errorf("trailing tokens %v", rest)
		}
		return Layer(l).Polygons().AreRectilinear().Named(id), nil
	case "enclosure":
		if len(rest) < 1 {
			return Rule{}, fmt.Errorf("enclosure rule needs the outer layer")
		}
		outer, err := layerOf(rest[0])
		if err != nil {
			return Rule{}, err
		}
		if len(rest) != 2 {
			return Rule{}, fmt.Errorf("enclosure rule needs a value")
		}
		v, err := num(rest[1])
		if err != nil {
			return Rule{}, err
		}
		return Layer(l).EnclosedBy(outer).AtLeast(v).Named(id), nil
	}
	return Rule{}, fmt.Errorf("unknown rule kind %q", kind)
}

// WriteDeck serializes a deck back into the text format (custom rules are
// skipped with a comment, since callables have no file representation).
func WriteDeck(w io.Writer, deck Deck) error {
	for _, r := range deck {
		var err error
		switch r.Kind {
		case Width:
			_, err = fmt.Fprintf(w, "rule %s width %d %d\n", r.ID, int16(r.Layer), r.Min)
		case Spacing:
			if r.PRLLength > 0 {
				_, err = fmt.Fprintf(w, "rule %s spacing %d %d prl %d %d\n",
					r.ID, int16(r.Layer), r.Min, r.PRLLength, r.PRLMin)
			} else {
				_, err = fmt.Fprintf(w, "rule %s spacing %d %d\n", r.ID, int16(r.Layer), r.Min)
			}
		case Area:
			_, err = fmt.Fprintf(w, "rule %s area %d %d\n", r.ID, int16(r.Layer), r.Min)
		case Rectilinear:
			_, err = fmt.Fprintf(w, "rule %s rectilinear %d\n", r.ID, int16(r.Layer))
		case Enclosure:
			_, err = fmt.Fprintf(w, "rule %s enclosure %d %d %d\n", r.ID, int16(r.Layer), int16(r.Outer), r.Min)
		case Custom:
			_, err = fmt.Fprintf(w, "# custom rule %s (%s) has no file representation\n", r.ID, r.Desc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
