// Package heap implements the list representation schemes surveyed in
// §2.3.3 over explicit word-addressed memories:
//
//   - two-pointer cells (Fig 2.6) — uniform, space-inefficient
//   - MIT-style cdr-coding (Fig 2.8) — vector-coded, with invisible
//     pointers for destructive modification
//   - linked vectors (Fig 2.7) — vector-coded with tagged indirection
//   - CDAR codes and EPS tuples (Fig 2.10) — structure-coded
//
// Every representation can build a list from an s-expression, decode it
// back, and perform car/cdr accesses while counting the memory words
// touched, so the representations' space (n+p cells versus n tuples,
// Fig 3.2) and traversal costs can be compared directly.
package heap

import (
	"errors"
	"fmt"

	"repro/internal/sexpr"
)

// Tag classifies a memory word's content.
type Tag uint8

const (
	// TagNil is the nil pointer/terminator.
	TagNil Tag = iota
	// TagAtom indexes the heap's atom table.
	TagAtom
	// TagCell is a pointer to a cell/element address in the same heap.
	TagCell
	// TagInvisible is an invisible pointer (§2.3.2): hardware-dereferenced
	// forwarding used by cdr-coded heaps after rplacd.
	TagInvisible
	// TagInt is an immediate integer: Val holds the value itself, so an
	// integer that fits in 32 bits needs no atom-table entry.
	TagInt
)

// Word is one tagged memory word.
type Word struct {
	Tag Tag
	Val int32
}

// NilWord is the nil-valued word.
var NilWord = Word{Tag: TagNil}

// IntWord returns the immediate word for i, or ok false when i does not
// fit in a word's 32-bit value.
func IntWord(i int64) (w Word, ok bool) {
	if i != int64(int32(i)) {
		return NilWord, false
	}
	return Word{Tag: TagInt, Val: int32(i)}, true
}

// ErrNoSpace is returned when a heap cannot allocate.
var ErrNoSpace = errors.New("heap: out of space")

// ErrBadAddress is returned for accesses outside allocated storage.
var ErrBadAddress = errors.New("heap: bad address")

// ErrNotList is returned when car/cdr is applied to an atom word.
var ErrNotList = errors.New("heap: car/cdr of non-list")

// Atoms interns atom values shared by all representations in a heap.
type Atoms struct {
	vals      []sexpr.Value // nil at a fresh atom's index (see fresh)
	index     map[sexpr.Value]int32
	freshRuns []freshRun // the fresh atoms' numbering, by index
}

// NewAtoms returns an empty atom table.
func NewAtoms() *Atoms {
	return &Atoms{index: make(map[sexpr.Value]int32)}
}

// Reset empties the table, keeping allocated storage for reuse.
func (a *Atoms) Reset() {
	a.vals = a.vals[:0]
	clear(a.index)
	a.freshRuns = a.freshRuns[:0]
}

// Intern returns a word denoting the atom v (nil maps to NilWord).
func (a *Atoms) Intern(v sexpr.Value) Word {
	if v == nil {
		return NilWord
	}
	if i, ok := a.index[v]; ok {
		return Word{Tag: TagAtom, Val: i}
	}
	i := int32(len(a.vals))
	a.vals = append(a.vals, v)
	a.index[v] = i
	return Word{Tag: TagAtom, Val: i}
}

// Len returns the number of interned atoms.
func (a *Atoms) Len() int { return len(a.vals) }

// Value returns the atom denoted by w.
func (a *Atoms) Value(w Word) (sexpr.Value, error) {
	switch w.Tag {
	case TagNil:
		return nil, nil
	case TagInt:
		return sexpr.Int(w.Val), nil
	case TagAtom:
		if int(w.Val) >= len(a.vals) {
			return nil, ErrBadAddress
		}
		if v := a.vals[w.Val]; v != nil {
			return v, nil
		}
		return a.freshValue(w.Val), nil
	default:
		return nil, fmt.Errorf("heap: word %v is not an atom", w)
	}
}

// Representation is the common facade over the four list encodings.
type Representation interface {
	// Name identifies the scheme ("twoptr", "cdrcode", ...).
	Name() string
	// Build stores the s-expression and returns its handle word.
	Build(v sexpr.Value) (Word, error)
	// Decode reconstructs the s-expression behind a handle.
	Decode(w Word) (sexpr.Value, error)
	// Car and Cdr perform one access step.
	Car(w Word) (Word, error)
	Cdr(w Word) (Word, error)
	// Words reports the memory words currently occupied by list data.
	Words() int
	// Touches reports cumulative memory words read or written.
	Touches() int64
}

// Decode renders a handle using a representation's Car/Cdr and atom table;
// helper shared by implementations.
func decodeVia(r Representation, atoms *Atoms, w Word) (sexpr.Value, error) {
	switch w.Tag {
	case TagNil, TagAtom, TagInt:
		return atoms.Value(w)
	}
	car, err := r.Car(w)
	if err != nil {
		return nil, err
	}
	cdr, err := r.Cdr(w)
	if err != nil {
		return nil, err
	}
	carV, err := decodeVia(r, atoms, car)
	if err != nil {
		return nil, err
	}
	cdrV, err := decodeVia(r, atoms, cdr)
	if err != nil {
		return nil, err
	}
	return sexpr.Cons(carV, cdrV), nil
}
