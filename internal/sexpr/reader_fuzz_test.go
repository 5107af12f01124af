package sexpr

import (
	"fmt"
	"math"
	"testing"
)

// readerSeeds covers number-like tokens, non-ASCII and invalid UTF-8,
// comments, brackets, dotted pairs, and errors on a later line.
var readerSeeds = []string{
	"+", "-", ".", ".5", "1.", "+.5", "-0", "1e9", "1E9", "9223372036854775808",
	"-9223372036854775809", "0x10", "1_000", "inf", "nan", "+inf", "-Inf", "NaN",
	"1e", "e1", "+e", "-.e5", "1.5e-3x", "0x1p-2", "(- n 1) (+ x 1) (1+ y)",
	"λ (λx \"ünï\" ∀) 'é", "\xff", "(a \xfe\xff b)", "\"\xc3\"", "\xe2\x82 x",
	"a b\u0085c", "(a . b)", "\"tab\\tnl\\n\\\"\\\\\\é\\\xff\"",
	"(a ; comment (\n b) ; tail", "; only a comment", "[a (b] c)", "[a [b] (c)]",
	"(a . b)", "(a . b c)", "(a . . b)", "( . a)", "(a .)", "(a .b)", "'(x . (y))",
	"(a\n b\n (c\n d", "(a)\n(b)\n)", "(a\n\"b\nc\" . )", "'", "\"abc", "\"a\\",
	"nil NIL Nil (nil . nil)",
}

// FuzzReaderMatchesRuneReader holds the byte-level reader to the rune
// reader it replaced (runereader_test.go): for any input both read the
// same values, atom types included, or fail with the same error text
// and line.
func FuzzReaderMatchesRuneReader(f *testing.F) {
	for _, s := range readerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := ParseAll(src)
		want, werr := runeParseAll(src)
		checkSameRead(t, "ParseAll", src, got, want, gerr, werr)
		g1, gerr := Parse(src)
		w1, werr := runeParse(src)
		checkSameRead(t, "Parse", src, []Value{g1}, []Value{w1}, gerr, werr)
	})
}

func TestReaderMatchesRuneReader(t *testing.T) {
	for _, src := range readerSeeds {
		got, gerr := ParseAll(src)
		want, werr := runeParseAll(src)
		checkSameRead(t, "ParseAll", src, got, want, gerr, werr)
	}
}

func checkSameRead(t *testing.T, fn, src string, got, want []Value, gerr, werr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s(%q): error %v, rune reader %v", fn, src, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s(%q): %d values, rune reader %d", fn, src, len(got), len(want))
	}
	for i := range got {
		if !sameDatum(got[i], want[i]) {
			t.Fatalf("%s(%q): value %d is %#v, rune reader %#v", fn, src, i, got[i], want[i])
		}
	}
}

// sameDatum compares two acyclic data by atom type and value; floats
// compare by bits, so -0 differs from 0.
func sameDatum(a, b Value) bool {
	for {
		switch x := a.(type) {
		case nil:
			return b == nil
		case Float:
			y, ok := b.(Float)
			return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
		case *Cell:
			y, ok := b.(*Cell)
			if !ok || !sameDatum(x.Car, y.Car) {
				return false
			}
			a, b = x.Cdr, y.Cdr
		default:
			return a == b
		}
	}
}
