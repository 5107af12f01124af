package sexpr

import (
	"math/rand"
	"reflect"
	"regexp"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) Value {
	t.Helper()
	v, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return v
}

func TestReadPrintRoundTrip(t *testing.T) {
	cases := []string{
		"nil",
		"a",
		"42",
		"-7",
		"3.5",
		`"hello world"`,
		"(a b c)",
		"(a (b c) d)",
		"(a . b)",
		"(a b . c)",
		"((a) (b) ((c)))",
		"(quote x)",
		"(1 2 3 4 5 6 7 8 9 10)",
		"((nil))",
	}
	for _, src := range cases {
		v := mustParse(t, src)
		got := String(v)
		if got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
	}
}

func TestReadNormalization(t *testing.T) {
	cases := map[string]string{
		"'x":             "(quote x)",
		"( a  b\tc )":    "(a b c)",
		"(a;comment\nb)": "(a b)",
		"()":             "nil",
		"(a b . nil)":    "(a b)",
		"[a b]":          "(a b)",
		"NIL":            "nil",
		"(a (b) . c)":    "(a (b) . c)",
	}
	for src, want := range cases {
		v := mustParse(t, src)
		if got := String(v); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"(a b",
		")",
		"(a . )",
		"(a . b c)",
		"(a . b . c)",
		`"unterminated`,
		"'",
		"(a b]",
		"[a b)",
		"(a))",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseAll(t *testing.T) {
	vs, err := ParseAll("(a) (b c) ; trailing comment\n42")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("got %d values, want 3", len(vs))
	}
	if String(vs[2]) != "42" {
		t.Errorf("third = %s", String(vs[2]))
	}
}

func TestAtomTypes(t *testing.T) {
	if v := mustParse(t, "12"); v != Int(12) {
		t.Errorf("12 parsed as %#v", v)
	}
	if v := mustParse(t, "1.5"); v != Float(1.5) {
		t.Errorf("1.5 parsed as %#v", v)
	}
	if v := mustParse(t, "1.5e3"); v != Float(1500) {
		t.Errorf("1.5e3 parsed as %#v", v)
	}
	if v := mustParse(t, "abc"); v != Symbol("abc") {
		t.Errorf("abc parsed as %#v", v)
	}
	// Symbols that look nearly numeric stay symbols.
	if v := mustParse(t, "1+"); v != Symbol("1+") {
		t.Errorf("1+ parsed as %#v", v)
	}
}

func TestCarCdr(t *testing.T) {
	v := mustParse(t, "(a b c)")
	if Car(v) != Symbol("a") {
		t.Errorf("car = %v", Car(v))
	}
	if String(Cdr(v)) != "(b c)" {
		t.Errorf("cdr = %s", String(Cdr(v)))
	}
	if Car(nil) != nil || Cdr(nil) != nil {
		t.Error("car/cdr of nil should be nil")
	}
	if Car(Symbol("x")) != nil {
		t.Error("car of atom should be nil")
	}
}

func TestLength(t *testing.T) {
	for src, want := range map[string]int{
		"nil": 0, "(a)": 1, "(a b c)": 3, "(a (b c) d)": 3,
	} {
		n, proper := Length(mustParse(t, src))
		if n != want || !proper {
			t.Errorf("Length(%s) = %d,%v want %d,true", src, n, proper, want)
		}
	}
	if n, proper := Length(mustParse(t, "(a . b)")); proper || n != 1 {
		t.Errorf("dotted Length = %d,%v", n, proper)
	}
	// Circular list must terminate.
	c := Cons(Symbol("a"), nil)
	c.Cdr = c
	if _, proper := Length(c); proper {
		t.Error("circular list reported proper")
	}
}

func TestEqAndEqual(t *testing.T) {
	a := mustParse(t, "(a (b) c)")
	b := mustParse(t, "(a (b) c)")
	if Eq(a, b) {
		t.Error("distinct cells must not be Eq")
	}
	if !Eq(a, a) {
		t.Error("same cell must be Eq")
	}
	if !Equal(a, b) {
		t.Error("structurally identical lists must be Equal")
	}
	if Equal(a, mustParse(t, "(a (b) d)")) {
		t.Error("different lists must not be Equal")
	}
	if !Eq(Symbol("x"), Symbol("x")) {
		t.Error("same symbol must be Eq")
	}
	if !Equal(nil, nil) || Equal(nil, Symbol("x")) {
		t.Error("nil equality broken")
	}
}

func TestEqualCircular(t *testing.T) {
	mk := func() *Cell {
		c := Cons(Symbol("a"), nil)
		c.Cdr = c
		return c
	}
	if !Equal(mk(), mk()) {
		t.Error("isomorphic circular lists should be Equal")
	}
}

func TestCopy(t *testing.T) {
	orig := mustParse(t, "(a (b c) d)")
	cp := Copy(orig)
	if !Equal(orig, cp) {
		t.Fatal("copy not Equal to original")
	}
	cp.(*Cell).Car = Symbol("z")
	if Equal(orig, cp) {
		t.Error("mutating copy affected original")
	}
}

func TestMeasure(t *testing.T) {
	// The two worked examples of Fig 3.2.
	cases := []struct {
		src  string
		n, p int
	}{
		{"(A B C (D E) F G)", 7, 1},
		{"(A (B (C (D E F) G)))", 7, 3},
		{"nil", 0, 0},
		{"(a)", 1, 0},
		{"((a))", 1, 1},
		{"(() ())", 0, 0}, // nil elements are atoms, not sublists
		{"(a . b)", 2, 0},
		{"x", 1, 0},
	}
	for _, c := range cases {
		m := Measure(mustParse(t, c.src))
		if m.N != c.n || m.P != c.p {
			t.Errorf("Measure(%s) = n=%d p=%d, want n=%d p=%d", c.src, m.N, m.P, c.n, c.p)
		}
	}
}

func TestMeasureCellIdentity(t *testing.T) {
	// n+p equals the two-pointer cell count for proper nested lists
	// without sharing or nil elements — the Fig 3.2 identity: the first
	// worked example has n=7, p=1 and "8 two-pointer list cells".
	for _, src := range []string{
		"(A B C (D E) F G)", "(a)", "((a) (b (c)) d)", "(((x)))",
		"(A (B (C (D E F) G)))",
	} {
		v := mustParse(t, src)
		m := Measure(v)
		if got, want := CellCount(v), m.N+m.P; got != want {
			t.Errorf("%s: cells=%d, n+p=%d", src, got, want)
		}
	}
}

func TestCellCountSharing(t *testing.T) {
	shared := mustParse(t, "(x y)")
	v := List(shared, shared)
	if got := CellCount(v); got != 4 { // 2 spine + 2 shared
		t.Errorf("CellCount with sharing = %d, want 4", got)
	}
}

func TestDepth(t *testing.T) {
	for src, want := range map[string]int{
		"a": 0, "(a b)": 1, "(a (b) c)": 2, "((a (b)))": 3, "nil": 0,
	} {
		if got := Depth(mustParse(t, src)); got != want {
			t.Errorf("Depth(%s) = %d, want %d", src, got, want)
		}
	}
}

func TestSymbols(t *testing.T) {
	got := Symbols(nil, mustParse(t, "(a (b 1) c . d)"))
	want := []Symbol{"a", "b", "c", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Symbols = %v, want %v", got, want)
	}
}

// randomValue builds a random s-expression for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return Symbol([]string{"a", "b", "c", "foo"}[r.Intn(4)])
		case 1:
			return Int(r.Intn(100))
		case 2:
			return nil
		default:
			return Str("s")
		}
	}
	n := r.Intn(4)
	items := make([]Value, n)
	for i := range items {
		items[i] = randomValue(r, depth-1)
	}
	return List(items...)
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 5)
		s := String(v)
		back, err := Parse(s)
		if err != nil {
			t.Logf("parse of %q failed: %v", s, err)
			return false
		}
		return Equal(v, back)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyCopyEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 5)
		return Equal(v, Copy(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMeasureNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 6)
		m := Measure(v)
		return m.N >= 0 && m.P >= 0 && m.N <= CellCount(v)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAccessorMatchesPattern checks Accessor against the pattern the
// engines matched with before, ^c([ad]{2,4})r$, over every name of up
// to seven letters from c, a, d, r and x.
func TestAccessorMatchesPattern(t *testing.T) {
	pat := regexp.MustCompile(`^c([ad]{2,4})r$`)
	var walk func(name string)
	walk = func(name string) {
		steps, mask, ok := Accessor(Symbol(name))
		m := pat.FindStringSubmatch(name)
		if ok != (m != nil) {
			t.Fatalf("Accessor(%q) ok = %v, pattern match %v", name, ok, m != nil)
		}
		if ok {
			var want uint8
			for j := 0; j < len(m[1]); j++ {
				if m[1][len(m[1])-1-j] == 'a' {
					want |= 1 << j
				}
			}
			if steps != len(m[1]) || mask != want {
				t.Fatalf("Accessor(%q) = %d, %#b; want %d, %#b", name, steps, mask, len(m[1]), want)
			}
		}
		if len(name) < 7 {
			for _, c := range "cadrx" {
				walk(name + string(c))
			}
		}
	}
	walk("")
}
