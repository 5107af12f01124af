package clark

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/sexpr"
)

// TestShapeMatchesGenList reads the same objects in two ways, from two
// models with the same seed: Build of GenList's s-expression, and
// BuildShape of SampleShape's shape. Handles, cells, atoms, Allocs,
// Touches, decoded text (names included) and the RNG must all agree.
func TestShapeMatchesGenList(t *testing.T) {
	const seeds, objects = 200, 50
	for seed := int64(1); seed <= seeds; seed++ {
		ma, mb := New(seed), New(seed)
		ha, hb := heap.NewTwoPtr(1<<16), heap.NewTwoPtr(1<<16)
		for k := 0; k < objects; k++ {
			v := ma.GenList(ma.SampleNP())
			sh := mb.SampleShape()
			if got, want := sh.Metrics(), sexpr.Measure(v); got != want {
				t.Fatalf("seed %d object %d: shape metrics %+v, GenList %+v", seed, k, got, want)
			}
			wa, err := ha.Build(v)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := hb.BuildShape(sh)
			if err != nil {
				t.Fatal(err)
			}
			if wa != wb || ha.Allocs() != hb.Allocs() || ha.Touches() != hb.Touches() || ha.Atoms().Len() != hb.Atoms().Len() {
				t.Fatalf("seed %d object %d: handle %v/%v allocs %d/%d touches %d/%d atoms %d/%d",
					seed, k, wa, wb, ha.Allocs(), hb.Allocs(), ha.Touches(), hb.Touches(), ha.Atoms().Len(), hb.Atoms().Len())
			}
			da, err := ha.Decode(wa)
			if err != nil {
				t.Fatal(err)
			}
			db, err := hb.Decode(wb)
			if err != nil {
				t.Fatal(err)
			}
			if a, b, g := sexpr.String(da), sexpr.String(db), sexpr.String(v); a != g || b != g {
				t.Fatalf("seed %d object %d: Build decodes %s, BuildShape %s, GenList made %s", seed, k, a, b, g)
			}
			if a, b := ma.Intn(1<<30), mb.Intn(1<<30); a != b {
				t.Fatalf("seed %d object %d: RNGs diverged (%d, %d)", seed, k, a, b)
			}
		}
		var cells []int32
		ha.ForEachUsed(func(addr int32) { cells = append(cells, addr) })
		n := 0
		hb.ForEachUsed(func(addr int32) {
			if n >= len(cells) || cells[n] != addr {
				t.Fatalf("seed %d: live cell %d not live in the Build heap", seed, addr)
			}
			n++
			if a, b := cellWords(t, ha, addr), cellWords(t, hb, addr); a != b {
				t.Fatalf("seed %d: cell %d holds %v, want %v", seed, addr, b, a)
			}
		})
		if n != len(cells) {
			t.Fatalf("seed %d: %d live cells, want %d", seed, n, len(cells))
		}
	}
}

// cellWords returns the car and cdr words of the cell at addr.
func cellWords(t *testing.T, h *heap.TwoPtr, addr int32) [2]heap.Word {
	t.Helper()
	w := heap.Word{Tag: heap.TagCell, Val: addr}
	car, err := h.Car(w)
	if err != nil {
		t.Fatal(err)
	}
	cdr, err := h.Cdr(w)
	if err != nil {
		t.Fatal(err)
	}
	return [2]heap.Word{car, cdr}
}
