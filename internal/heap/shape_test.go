package heap

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/sexpr"
)

func TestFreshName(t *testing.T) {
	for i, want := range map[int64]string{0: "sa", 1: "sb", 25: "sz", 26: "saa", 27: "sab", 701: "szz", 702: "saaa"} {
		if got := freshName(i); got != want {
			t.Errorf("freshName(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestFreshAtoms(t *testing.T) {
	a := NewAtoms()
	x := a.Intern(sexpr.Symbol("x"))
	f1 := a.fresh(1)
	f2 := a.fresh(2)                   // continues f1's run
	sb := a.Intern(sexpr.Symbol("sb")) // named as f1 is
	f3 := a.fresh(3)                   // starts a new run after sb's index
	f9 := a.fresh(9)                   // starts a new run
	f10 := a.fresh(10)                 // continues f9's run
	if sb == f1 || sb == x {
		t.Errorf("interned sb = %v, fresh sb = %v: a fresh atom must not equal an interned one", sb, f1)
	}
	want := map[Word]string{x: "x", f1: "sb", f2: "sc", sb: "sb", f3: "sd", f9: "sj", f10: "sk"}
	for w, name := range want {
		v, err := a.Value(w)
		if err != nil {
			t.Fatal(err)
		}
		if v != sexpr.Symbol(name) {
			t.Errorf("Value(%v) = %v, want %s", w, v, name)
		}
	}
	if a.Len() != 7 {
		t.Errorf("Len = %d, want 7", a.Len())
	}
	if a.Intern(sexpr.Symbol("x")) != x {
		t.Error("interning x again gave a new atom")
	}
	a.Reset()
	if w := a.fresh(27); w != (Word{Tag: TagAtom, Val: 0}) {
		t.Errorf("first fresh atom after Reset = %v", w)
	} else if v, err := a.Value(w); err != nil || v != sexpr.Symbol("sab") {
		t.Errorf("Value after Reset = %v, %v, want sab", v, err)
	}
}

// randomShape folds n atoms into p sublists as the n/p model does.
func randomShape(rng *rand.Rand, sh *Shape, n, p int, sym int64) {
	sh.Reset(n, sym)
	type span struct{ first, last int }
	var items []span
	for i := 0; i < n; i++ {
		items = append(items, span{i, i})
	}
	for i := 0; i < p && len(items) > 1; i++ {
		a := rng.Intn(len(items))
		l := 1 + rng.Intn(len(items)-a)
		sub := span{items[a].first, items[a+l-1].last}
		sh.Wrap(sub.first, sub.last)
		items = append(items[:a+1], items[a+l:]...)
		items[a] = sub
	}
}

func TestShapeValue(t *testing.T) {
	var sh Shape
	sh.Reset(4, 0)
	sh.Wrap(1, 2)
	sh.Wrap(1, 2)
	sh.Wrap(0, 3)
	if got, want := sexpr.String(sh.Value()), "((sa ((sb sc)) sd))"; got != want {
		t.Errorf("Value = %s, want %s", got, want)
	}
	if got, want := sh.Metrics(), (sexpr.Metrics{N: 4, P: 3}); got != want {
		t.Errorf("Metrics = %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Wrap(2, 1) did not panic")
		}
	}()
	sh.Wrap(2, 1)
}

// TestBuildShapeMatchesBuild builds random shapes with BuildShape and
// their s-expressions with Build, on heaps of every capacity from empty
// to roomy: handle, error, cells, atoms and counters must agree, also
// when the heap runs out part way.
func TestBuildShapeMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sh Shape
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		randomShape(rng, &sh, n, rng.Intn(n+2), int64(rng.Intn(1000)))
		v := sh.Value()
		met := sh.Metrics()
		if m := sexpr.Measure(v); m != met {
			t.Fatalf("%s: Measure %+v, Metrics %+v", sexpr.String(v), m, met)
		}
		for capacity := 1; capacity <= met.N+met.P+1; capacity++ {
			a, b := NewTwoPtr(capacity), NewTwoPtr(capacity)
			for _, h := range []*TwoPtr{a, b} {
				if _, err := h.Alloc(NilWord, NilWord); err != nil { // start off the zero address
					t.Fatal(err)
				}
			}
			wa, errA := a.Build(v)
			wb, errB := b.BuildShape(&sh)
			if wa != wb || !errors.Is(errB, errA) || a.Allocs() != b.Allocs() || a.Touches() != b.Touches() ||
				a.FreeCells() != b.FreeCells() || a.Atoms().Len() != b.Atoms().Len() {
				t.Fatalf("%s at capacity %d: Build %v %v allocs %d touches %d atoms %d; BuildShape %v %v allocs %d touches %d atoms %d",
					sexpr.String(v), capacity, wa, errA, a.Allocs(), a.Touches(), a.Atoms().Len(),
					wb, errB, b.Allocs(), b.Touches(), b.Atoms().Len())
			}
			if errA != nil {
				continue
			}
			da, err := a.Decode(wa)
			if err != nil {
				t.Fatal(err)
			}
			db, err := b.Decode(wb)
			if err != nil {
				t.Fatal(err)
			}
			if !sexpr.Equal(da, db) || !sexpr.Equal(db, v) {
				t.Fatalf("BuildShape decodes %s, want %s", sexpr.String(db), sexpr.String(v))
			}
		}
	}
}
