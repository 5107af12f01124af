package heap

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sexpr"
)

// Shape describes a list of fresh atoms by its parentheses alone: n
// atoms, numbered sym, sym+1, ... left to right, with each sublist
// recorded as one more left parenthesis before its first atom and one
// more right parenthesis after its last. (a (b c) d) is n 4 with the
// sublist (b c) wrapping atoms 1 to 2. Since every pair opens at or
// before the atom where it closes, a shape always balances.
//
// The Chapter 5 simulator reads its fresh list objects in as shapes
// (clark.Model.SampleShape, TwoPtr.BuildShape), so it makes no
// s-expression, no name string and no atom-table map entry per object.
type Shape struct {
	opens, closes []int32 // per atom: sublists starting before it, ending after it
	sym           int64
	p             int
}

// Reset makes s a flat list of n atoms numbered from sym, reusing its
// storage.
func (s *Shape) Reset(n int, sym int64) {
	s.opens = slices.Grow(s.opens[:0], n)[:n]
	s.closes = slices.Grow(s.closes[:0], n)[:n]
	clear(s.opens)
	clear(s.closes)
	s.sym = sym
	s.p = 0
}

// Wrap adds a sublist around atoms first..last. Sublists must nest: two
// of them either share no atom or one lies within the other, and where
// two wrap the same atoms, either may be taken as the outer one.
func (s *Shape) Wrap(first, last int) {
	if first < 0 || first > last || last >= len(s.opens) {
		panic(fmt.Sprintf("heap: Wrap(%d, %d) of a %d-atom shape", first, last, len(s.opens)))
	}
	s.opens[first]++
	s.closes[last]++
	s.p++
}

// Metrics returns the shape's list complexity: n atoms and p sublists
// (Fig 3.2), so a two-pointer heap stores it in n+p cells.
func (s *Shape) Metrics() sexpr.Metrics {
	return sexpr.Metrics{N: len(s.opens), P: s.p}
}

// Value returns the s-expression the shape describes. Atom number k is
// the symbol freshName(k): s and then k in base 26, so 0 is sa, 25 sz
// and 26 saa.
func (s *Shape) Value() sexpr.Value {
	var elems []sexpr.Value // elements of the lists still open
	starts := []int{0}      // where each open list's elements begin
	for i, opens := range s.opens {
		for range opens {
			starts = append(starts, len(elems))
		}
		elems = append(elems, sexpr.Symbol(freshName(s.sym+int64(i))))
		for range s.closes[i] {
			start := starts[len(starts)-1]
			starts = starts[:len(starts)-1]
			elems = append(elems[:start], sexpr.List(elems[start:]...))
		}
	}
	return sexpr.List(elems...)
}

// BuildShape stores the list s describes and returns its handle. Each
// atom is a fresh atom (Atoms.fresh). Cells and atoms are taken in
// exactly the order Build takes them for s.Value(): within each list the
// elements left to right, then the list's spine right to left. Every
// address, word and counter therefore comes out as Build's would, and
// so does the heap's state when it runs out of space part way.
func (h *TwoPtr) BuildShape(s *Shape) (Word, error) {
	elems := h.shapeElems[:0]              // elements of the lists still open
	starts := append(h.shapeStarts[:0], 0) // where each open list's elements begin
	defer func() { h.shapeElems, h.shapeStarts = elems, starts }()
	for i, opens := range s.opens {
		for range opens {
			starts = append(starts, int32(len(elems)))
		}
		elems = append(elems, h.atoms.fresh(s.sym+int64(i)))
		for range s.closes[i] {
			start := starts[len(starts)-1]
			starts = starts[:len(starts)-1]
			sub, err := h.spine(elems[start:])
			if err != nil {
				return NilWord, err
			}
			elems = append(elems[:start], sub)
		}
	}
	return h.spine(elems)
}

// spine allocates the cells of the proper list of elems, last cell
// first, and returns the list's handle.
func (h *TwoPtr) spine(elems []Word) (Word, error) {
	w := NilWord
	for j := len(elems) - 1; j >= 0; j-- {
		addr, err := h.Alloc(elems[j], w)
		if err != nil {
			return NilWord, err
		}
		w = Word{Tag: TagCell, Val: addr}
	}
	return w, nil
}

// freshRun records that the fresh atom at table index at is fresh atom
// number sym, and that each later fresh atom continues the numbering by
// its index until the next run begins.
type freshRun struct {
	at  int32
	sym int64
}

// fresh adds fresh atom number sym to the table and returns its word.
// It takes the next index but stores no value and no index entry; the
// atom's name, freshName(sym), is rendered only when Value asks for it.
// So a fresh atom's word never equals an interned atom's, even if Intern
// is later given a symbol of the same name. Only the simulator makes
// fresh atoms, on a heap where it interns nothing.
func (a *Atoms) fresh(sym int64) Word {
	i := int32(len(a.vals))
	a.vals = append(a.vals, nil)
	if n := len(a.freshRuns); n == 0 || a.freshRuns[n-1].sym+int64(i-a.freshRuns[n-1].at) != sym {
		a.freshRuns = append(a.freshRuns, freshRun{at: i, sym: sym})
	}
	return Word{Tag: TagAtom, Val: i}
}

// freshValue renders the fresh atom at table index i.
func (a *Atoms) freshValue(i int32) sexpr.Value {
	r := a.freshRuns[sort.Search(len(a.freshRuns), func(k int) bool { return a.freshRuns[k].at > i })-1]
	return sexpr.Symbol(freshName(r.sym + int64(i-r.at)))
}

// freshName returns the name of fresh atom number i: "s" and then i in
// compact base 26 (a, b, ..., z, aa, ab, ...), at most eight letters.
func freshName(i int64) string {
	var buf [9]byte
	pos := len(buf)
	for i >= 0 && pos > 1 {
		pos--
		buf[pos] = byte('a' + i%26)
		i = i/26 - 1
	}
	pos--
	buf[pos] = 's'
	return string(buf[pos:])
}
