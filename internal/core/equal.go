package core

import (
	"repro/internal/heap"
	"repro/internal/sexpr"
)

// Equal reports whether a and b are equal in the sense of Lisp equal.
// Like AppendTextOf it reads the LPT and heap in place, without changing
// either or any reference count. Like sexpr.Equal it is safe on circular
// structure: a pair of cells met a second time compares equal.
func (m *Machine) Equal(a, b Value) (bool, error) {
	ca, err := m.textCursorOf(a)
	if err != nil {
		return false, err
	}
	cb, err := m.textCursorOf(b)
	if err != nil {
		return false, err
	}
	var seen map[[2]textCursor]bool
	return m.equalCursors(ca, cb, &seen)
}

// equalCursors compares two positions, walking cdrs in a loop and
// recursing on cars.
func (m *Machine) equalCursors(a, b textCursor, seen *map[[2]textCursor]bool) (bool, error) {
	for {
		ra, aCell, err := m.resolveCursor(a)
		if err != nil {
			return false, err
		}
		rb, bCell, err := m.resolveCursor(b)
		if err != nil {
			return false, err
		}
		if aCell != bCell {
			return false, nil
		}
		if !aCell {
			return m.atomsEqual(ra.w, rb.w)
		}
		p := [2]textCursor{ra, rb}
		if (*seen)[p] {
			return true, nil
		}
		if *seen == nil {
			*seen = make(map[[2]textCursor]bool)
		}
		(*seen)[p] = true
		acar, acdr, err := m.cursorChildren(ra)
		if err != nil {
			return false, err
		}
		bcar, bcdr, err := m.cursorChildren(rb)
		if err != nil {
			return false, err
		}
		if eq, err := m.equalCursors(acar, bcar, seen); err != nil || !eq {
			return false, err
		}
		a, b = acdr, bcdr
	}
}

// atomsEqual compares two atom or nil words by value: an integer can be
// an immediate word or, outside the 32-bit range, an atom-table entry.
func (m *Machine) atomsEqual(x, y heap.Word) (bool, error) {
	if x == y {
		return true, nil
	}
	xv, err := m.heap.Atoms().Value(x)
	if err != nil {
		return false, err
	}
	yv, err := m.heap.Atoms().Value(y)
	if err != nil {
		return false, err
	}
	return sexpr.Eq(xv, yv), nil
}
