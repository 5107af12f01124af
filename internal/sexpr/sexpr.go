// Package sexpr implements Lisp s-expressions: atoms (symbols, integers,
// floats, strings) and list cells, together with a reader, a printer, and
// the structural metrics used throughout the thesis (n, the number of
// symbols in a list, and p, the number of internal parenthesis pairs;
// §3.3.1, Fig 3.2).
//
// The package is deliberately representation-naive: a list is a linked
// structure of two-pointer Cells exactly as in Fig 2.1. The compact heap
// representations (cdr-coding, linked vectors, CDAR/EPS codes) live in
// internal/heap and are built *from* these values.
package sexpr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Value is any Lisp datum: nil, a symbol, a number, a string, or a cell.
// The nil object is represented by the untyped Go nil Value, which keeps
// "nil is both an atom and the empty list" cheap to test.
type Value interface {
	// write appends the printed representation to b.
	write(b *strings.Builder)
}

// Symbol is a Lisp symbol (a name atom).
type Symbol string

// Int is a Lisp integer atom.
type Int int64

// Float is a Lisp floating point atom.
type Float float64

// Str is a Lisp string atom.
type Str string

// Cell is a two-pointer list cell (Fig 2.1a): Car points at the contents,
// Cdr links to the rest of the list.
type Cell struct {
	Car Value
	Cdr Value
}

func (s Symbol) write(b *strings.Builder) { b.WriteString(string(s)) }
func (i Int) write(b *strings.Builder)    { b.WriteString(strconv.FormatInt(int64(i), 10)) }

func (f Float) write(b *strings.Builder) {
	s := strconv.FormatFloat(float64(f), 'g', -1, 64)
	b.WriteString(s)
	// Keep the float readable as a float: "0." must not print as "0".
	if !strings.ContainsAny(s, ".eE") {
		b.WriteString(".0")
	}
}

func (s Str) write(b *strings.Builder) {
	// Escape only what the reader understands: quote, backslash, newline
	// and tab. Other bytes (including control characters) pass through.
	b.WriteByte('"')
	for _, r := range string(s) {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

func (c *Cell) write(b *strings.Builder) {
	budget := MaxCells
	c.writeAt(b, 0, &budget)
}

// writeAt prints the list at c, nested depth cars deep, within what is
// left of the cell budget. Where a walk would break a bound, it prints
// "..." instead of what is left (see Printable).
func (c *Cell) writeAt(b *strings.Builder, depth int, budget *int) {
	if depth >= MaxDepth {
		b.WriteString("...")
		return
	}
	b.WriteByte('(')
	var cy Cycle[*Cell]
	cy.Start(c)
	for {
		if *budget--; *budget < 0 {
			b.WriteString("...)")
			return
		}
		switch car := c.Car.(type) {
		case nil:
			b.WriteString("nil")
		case *Cell:
			car.writeAt(b, depth+1, budget)
		default:
			car.write(b)
		}
		switch cdr := c.Cdr.(type) {
		case nil:
			b.WriteByte(')')
			return
		case *Cell:
			if cy.Step(cdr) {
				b.WriteString(" ...)")
				return
			}
			b.WriteByte(' ')
			c = cdr
		default:
			b.WriteString(" . ")
			cdr.write(b)
			b.WriteByte(')')
			return
		}
	}
}

// String renders v in standard Lisp notation. The nil value prints as "nil".
// A value Printable rejects prints "..." where a bound would break, so
// String always returns.
func String(v Value) string {
	if v == nil {
		return "nil"
	}
	var b strings.Builder
	v.write(&b)
	return b.String()
}

// Bounds on the walkers that turn structure into text or s-expressions
// (the printer, Printable, and the SMALL machine's value conversion). A walk
// follows cdrs in a loop and recurses only into cars, at most MaxDepth
// deep, and visits at most MaxCells cells, a shared cell once for each
// path to it. A list whose cdrs lead back into it is found exactly; a
// cycle through a car meets one of the bounds.
const (
	MaxDepth = 10_000
	MaxCells = 1 << 20
)

var (
	// ErrCircular is a list whose cdrs lead back into it.
	ErrCircular = errors.New("sexpr: circular list")
	// ErrTooLarge is a value nested more than MaxDepth cars deep, or of
	// more than MaxCells cells.
	ErrTooLarge = errors.New("sexpr: list nested more than " + strconv.Itoa(MaxDepth) +
		" deep or of more than " + strconv.Itoa(MaxCells) + " cells")
)

// Printable checks that v prints in full: it answers ErrCircular or
// ErrTooLarge where the printer would print "...", and nil otherwise.
func Printable(v Value) error {
	budget := MaxCells
	return walk(v, 0, &budget)
}

func walk(v Value, depth int, budget *int) error {
	c, ok := v.(*Cell)
	if !ok {
		return nil
	}
	if depth >= MaxDepth {
		return ErrTooLarge
	}
	var cy Cycle[*Cell]
	cy.Start(c)
	for {
		if *budget--; *budget < 0 {
			return ErrTooLarge
		}
		if err := walk(c.Car, depth+1, budget); err != nil {
			return err
		}
		next, ok := c.Cdr.(*Cell)
		if !ok {
			return nil
		}
		if cy.Step(next) {
			return ErrCircular
		}
		c = next
	}
}

// Cycle finds a cycle along a list's cdrs with Brent's algorithm: a
// saved position moves ahead to the current one whenever the steps
// since it was saved reach a power of two, so a walk that comes round
// to the saved position has gone round a cycle. It costs a compare per
// step and no allocation. T is whatever names a cell to the walker.
type Cycle[T comparable] struct {
	saved       T
	power, lamb int
}

// Start begins a walk at c.
func (y *Cycle[T]) Start(c T) { y.saved, y.power, y.lamb = c, 1, 0 }

// Step reports whether next, the cell after the current one, closes a
// cycle.
func (y *Cycle[T]) Step(next T) bool {
	if next == y.saved {
		return true
	}
	if y.lamb++; y.lamb == y.power {
		y.saved, y.power, y.lamb = next, 2*y.power, 0
	}
	return false
}

// CdrWalk guards a list primitive's walk along a list's cdrs inside one
// call or one instruction, where neither a step budget nor a context
// would stop a walk round a circular list. Next takes each cell of the
// walk in turn, the first included, and at the first that closes a
// cycle answers an error that names Op and wraps ErrCircular. The zero
// value, given an Op, is ready to use.
type CdrWalk[T comparable] struct {
	Op      string
	cy      Cycle[T]
	started bool
}

// Next takes the next cell of the walk.
func (w *CdrWalk[T]) Next(c T) error {
	if !w.started {
		w.cy.Start(c)
		w.started = true
		return nil
	}
	if w.cy.Step(c) {
		return fmt.Errorf("%s: %w", w.Op, ErrCircular)
	}
	return nil
}

// Cons allocates a fresh cell.
func Cons(car, cdr Value) *Cell { return &Cell{Car: car, Cdr: cdr} }

// List builds a proper list from its arguments.
func List(items ...Value) Value {
	var out Value
	for i := len(items) - 1; i >= 0; i-- {
		out = Cons(items[i], out)
	}
	return out
}

// IsAtom reports whether v is an atom. nil counts as an atom, as in Lisp.
func IsAtom(v Value) bool {
	_, cell := v.(*Cell)
	return !cell
}

// IsList reports whether v is nil or a cell.
func IsList(v Value) bool {
	if v == nil {
		return true
	}
	_, ok := v.(*Cell)
	return ok
}

// Car returns the car of v, or nil if v is not a cell ((car nil) = nil).
func Car(v Value) Value {
	if c, ok := v.(*Cell); ok {
		return c.Car
	}
	return nil
}

// Cdr returns the cdr of v, or nil if v is not a cell.
func Cdr(v Value) Value {
	if c, ok := v.(*Cell); ok {
		return c.Cdr
	}
	return nil
}

// Length returns the number of top-level elements of a proper list, and
// whether the list was proper (nil-terminated without dotted tail).
// Circular cdr chains terminate with proper=false after a cycle is found.
func Length(v Value) (n int, proper bool) {
	slow, fast := v, v
	for {
		c, ok := fast.(*Cell)
		if !ok {
			return n, fast == nil
		}
		n++
		fast = c.Cdr
		if n%2 == 0 {
			slow = Cdr(slow)
			if slow == fast {
				return n, false // circular
			}
		}
	}
}

// Eq reports pointer/atom identity: cells must be the same cell, atoms must
// be the same atom value.
func Eq(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ca, aok := a.(*Cell)
	cb, bok := b.(*Cell)
	if aok || bok {
		return aok && bok && ca == cb
	}
	return a == b
}

// Equal reports structural equality (the Lisp equal predicate). It is
// cycle-safe for acyclic inputs up to the given depth of sharing; circular
// structures are compared with a visited-pair set.
func Equal(a, b Value) bool {
	type pair struct{ a, b *Cell }
	var seen map[pair]bool
	var eq func(a, b Value) bool
	eq = func(a, b Value) bool {
		ca, aok := a.(*Cell)
		cb, bok := b.(*Cell)
		if aok != bok {
			return false
		}
		if !aok {
			return Eq(a, b)
		}
		p := pair{ca, cb}
		if seen[p] {
			return true
		}
		if seen == nil {
			seen = make(map[pair]bool)
		}
		seen[p] = true
		return eq(ca.Car, cb.Car) && eq(ca.Cdr, cb.Cdr)
	}
	return eq(a, b)
}

// Copy returns a deep copy of v. Atoms are shared (they are immutable);
// every cell is freshly allocated. Copy panics on circular structure.
func Copy(v Value) Value {
	c, ok := v.(*Cell)
	if !ok {
		return v
	}
	return Cons(Copy(c.Car), Copy(c.Cdr))
}

// Metrics holds the list complexity measures of §3.3.1.
type Metrics struct {
	N int // number of symbols (atoms other than nil) in the list
	P int // number of internal parenthesis pairs (nested sublists)
}

// Measure computes the (n, p) metrics of Fig 3.2 for v. For the list
// (A B C (D E) F G) it returns n=7, p=1; for (A (B (C (D E F) G))) it
// returns n=7, p=3. n counts atom occurrences; p counts non-nil sublist
// occurrences below the top level. n+p is the number of two-pointer cells
// needed (Fig 3.2), n the number of structure-coded tuples.
func Measure(v Value) Metrics {
	var m Metrics
	var walk func(v Value, top bool)
	walk = func(v Value, top bool) {
		for {
			c, ok := v.(*Cell)
			if !ok {
				if v != nil {
					m.N++ // dotted atom tail
				}
				return
			}
			if sub, ok := c.Car.(*Cell); ok {
				m.P++
				walk(sub, false)
			} else if c.Car != nil {
				m.N++
			}
			v = c.Cdr
		}
	}
	if c, ok := v.(*Cell); ok {
		walk(c, true)
	} else if v != nil {
		m.N = 1
	}
	return m
}

// CellCount returns the number of two-pointer cells reachable from v,
// counting shared cells once. It is cycle-safe.
func CellCount(v Value) int {
	seen := make(map[*Cell]bool)
	var walk func(Value)
	walk = func(v Value) {
		c, ok := v.(*Cell)
		if !ok || seen[c] {
			return
		}
		seen[c] = true
		walk(c.Car)
		walk(c.Cdr)
	}
	walk(v)
	return len(seen)
}

// Depth returns the maximum car-nesting depth of v: atoms have depth 0,
// a flat list depth 1, (A (B)) depth 2.
func Depth(v Value) int {
	c, ok := v.(*Cell)
	if !ok {
		return 0
	}
	max := 0
	for c != nil {
		if d := Depth(c.Car); d > max {
			max = d
		}
		next, ok := c.Cdr.(*Cell)
		if !ok {
			break
		}
		c = next
	}
	return max + 1
}

// Symbols appends every symbol occurring in v, in left-to-right order, to
// dst and returns the extended slice.
func Symbols(dst []Symbol, v Value) []Symbol {
	switch t := v.(type) {
	case Symbol:
		return append(dst, t)
	case *Cell:
		dst = Symbols(dst, t.Car)
		return Symbols(dst, t.Cdr)
	default:
		return dst
	}
}

// Accessor parses a composite accessor name, cadr .. cddddr: a c, two
// to four a or d letters, and an r. A longer chain is an ordinary
// function name. The chain applies right to left: step j, counting from
// the letter next to the r, takes the car when bit j of mask is set and
// the cdr otherwise.
func Accessor(name Symbol) (steps int, mask uint8, ok bool) {
	if len(name) < 4 || len(name) > 6 || name[0] != 'c' || name[len(name)-1] != 'r' {
		return 0, 0, false
	}
	mid := name[1 : len(name)-1]
	for j := 0; j < len(mid); j++ {
		switch mid[len(mid)-1-j] {
		case 'a':
			mask |= 1 << j
		case 'd':
		default:
			return 0, 0, false
		}
	}
	return len(mid), mask, true
}
