package heap

import (
	"fmt"

	"repro/internal/sexpr"
	"repro/internal/stats"
)

// TwoPtr is the classical two-pointer list cell heap of Fig 2.6: every
// cell holds a full car word and a full cdr word. It is the uniform
// representation (§3.1) — no exception cases — and the substrate below
// the SMALL heap controller's split/merge operations and the collectors
// in internal/gc.
//
// Storage grows on demand. cells holds only the addresses handed out so
// far; the free list threads freed cells only. An eagerly threaded heap
// lists its cells in address order, so its free list is always the freed
// cells (most recent first) followed by the never-used cells in address
// order. Alloc reproduces exactly that order, taking the next never-used
// address once no freed cell is left, so every address is the one the
// eager heap would have chosen.
type TwoPtr struct {
	cells    []cell // addresses 0..len-1 have been handed out at least once
	capacity int
	free     int32 // head of the freed-cell list, threaded through Cdr.Val; -1 = none
	nFree    int   // free cells: freed plus never used
	atoms    *Atoms
	touches  int64
	allocs   int64
}

type cell struct {
	Car, Cdr Word
	used     bool
}

const freeEnd = int32(-1)

// NewTwoPtr returns a two-pointer heap with the given number of cells.
func NewTwoPtr(capacity int) *TwoPtr {
	h := &TwoPtr{}
	h.Reset(capacity)
	return h
}

// Reset reinitialises the heap to an empty state with the given capacity,
// reusing the cell array and atom table storage. Only the cells handed
// out since the last Reset are cleared. A reset heap behaves identically
// to NewTwoPtr(capacity).
func (h *TwoPtr) Reset(capacity int) {
	clear(h.cells)
	h.cells = h.cells[:0]
	h.capacity = capacity
	if h.atoms == nil {
		h.atoms = NewAtoms()
	} else {
		h.atoms.Reset()
	}
	h.free = freeEnd
	h.nFree = capacity
	h.touches = 0
	h.allocs = 0
}

// Atoms exposes the heap's atom table.
func (h *TwoPtr) Atoms() *Atoms { return h.atoms }

// Name implements Representation.
func (h *TwoPtr) Name() string { return "twoptr" }

// Capacity returns the total cell count.
func (h *TwoPtr) Capacity() int { return h.capacity }

// FreeCells returns the number of cells on the free list.
func (h *TwoPtr) FreeCells() int { return h.nFree }

// Allocs returns the cumulative number of cell allocations.
func (h *TwoPtr) Allocs() int64 { return h.allocs }

// Touches implements Representation.
func (h *TwoPtr) Touches() int64 { return h.touches }

// Words implements Representation: two words per live cell.
func (h *TwoPtr) Words() int { return 2 * (h.capacity - h.nFree) }

// Alloc takes the most recently freed cell, or else the lowest
// never-used address, and initialises it. Fresh allocation thus walks
// memory sequentially, which is what makes naive cons linearize lists
// well (Clark's observation in §3.2.1).
func (h *TwoPtr) Alloc(car, cdr Word) (int32, error) {
	c := cell{Car: car, Cdr: cdr, used: true}
	var addr int32
	switch {
	case h.free != freeEnd:
		addr = h.free
		h.free = h.cells[addr].Cdr.Val
		h.cells[addr] = c
	case len(h.cells) < h.capacity:
		addr = int32(len(h.cells))
		h.cells = GrowWithin(h.cells, h.capacity)
		h.cells[addr] = c
	default:
		return 0, ErrNoSpace
	}
	h.nFree--
	h.allocs++
	h.touches += 2
	return addr, nil
}

// FreeCell returns one cell to the free list.
func (h *TwoPtr) FreeCell(addr int32) error {
	if err := h.check(addr); err != nil {
		return err
	}
	if int(addr) >= len(h.cells) {
		return fmt.Errorf("%w: %d is free", ErrBadAddress, addr)
	}
	h.cells[addr] = cell{Cdr: Word{Val: h.free}}
	h.free = addr
	h.nFree++
	return nil
}

// FreeTree returns the cell at addr and every cell reachable from it to
// the free list — the heap controller's unbounded "free" operation of
// §4.3.3.1, performed with an explicit stack. Shared or cyclic structure
// is freed once.
func (h *TwoPtr) FreeTree(w Word) int {
	freed := 0
	var stack []Word
	stack = append(stack, w)
	seen := make(map[int32]bool)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w.Tag != TagCell || seen[w.Val] {
			continue
		}
		if !h.inUse(w.Val) {
			continue
		}
		seen[w.Val] = true
		c := h.cells[w.Val]
		stack = append(stack, c.Car, c.Cdr)
		if h.FreeCell(w.Val) == nil {
			freed++
		}
	}
	return freed
}

// inUse reports whether addr holds a live cell.
func (h *TwoPtr) inUse(addr int32) bool {
	return addr >= 0 && int(addr) < len(h.cells) && h.cells[addr].used
}

func (h *TwoPtr) check(addr int32) error {
	if addr < 0 || int(addr) >= h.capacity {
		return fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	return nil
}

// deref resolves an address for access.
func (h *TwoPtr) deref(w Word) (int32, error) {
	if w.Tag != TagCell {
		return 0, ErrNotList
	}
	if err := h.check(w.Val); err != nil {
		return 0, err
	}
	if !h.inUse(w.Val) {
		return 0, fmt.Errorf("%w: %d is free", ErrBadAddress, w.Val)
	}
	return w.Val, nil
}

// Car implements Representation.
func (h *TwoPtr) Car(w Word) (Word, error) {
	addr, err := h.deref(w)
	if err != nil {
		return NilWord, err
	}
	h.touches++
	return h.cells[addr].Car, nil
}

// Cdr implements Representation.
func (h *TwoPtr) Cdr(w Word) (Word, error) {
	addr, err := h.deref(w)
	if err != nil {
		return NilWord, err
	}
	h.touches++
	return h.cells[addr].Cdr, nil
}

// Rplaca overwrites the car of the cell at w.
func (h *TwoPtr) Rplaca(w, v Word) error {
	addr, err := h.deref(w)
	if err != nil {
		return err
	}
	h.touches++
	h.cells[addr].Car = v
	return nil
}

// Rplacd overwrites the cdr of the cell at w.
func (h *TwoPtr) Rplacd(w, v Word) error {
	addr, err := h.deref(w)
	if err != nil {
		return err
	}
	h.touches++
	h.cells[addr].Cdr = v
	return nil
}

// Build implements Representation.
func (h *TwoPtr) Build(v sexpr.Value) (Word, error) {
	switch t := v.(type) {
	case nil:
		return NilWord, nil
	case *sexpr.Cell:
		car, err := h.Build(t.Car)
		if err != nil {
			return NilWord, err
		}
		cdr, err := h.Build(t.Cdr)
		if err != nil {
			return NilWord, err
		}
		addr, err := h.Alloc(car, cdr)
		if err != nil {
			return NilWord, err
		}
		return Word{Tag: TagCell, Val: addr}, nil
	default:
		return h.atoms.Intern(v), nil
	}
}

// Decode implements Representation.
func (h *TwoPtr) Decode(w Word) (sexpr.Value, error) {
	return decodeVia(h, h.atoms, w)
}

// Split implements the heap controller's split of §4.3.3.2 for two-pointer
// cells: the object at w is split into its car and cdr, and the cell is
// freed. "Splitting objects represented using two pointer list cells is
// simple."
func (h *TwoPtr) Split(w Word) (car, cdr Word, err error) {
	addr, err := h.deref(w)
	if err != nil {
		return NilWord, NilWord, err
	}
	h.touches += 2
	c := h.cells[addr]
	if err := h.FreeCell(addr); err != nil {
		return NilWord, NilWord, err
	}
	return c.Car, c.Cdr, nil
}

// Merge implements the heap controller's merge (the inverse of Split): a
// fresh cell pointing at the two pieces.
func (h *TwoPtr) Merge(car, cdr Word) (Word, error) {
	addr, err := h.Alloc(car, cdr)
	if err != nil {
		return NilWord, err
	}
	return Word{Tag: TagCell, Val: addr}, nil
}

// ForEachUsed calls fn with the address of every live cell, in address
// order. Used by the sweep phase of external collectors.
func (h *TwoPtr) ForEachUsed(fn func(addr int32)) {
	for addr := range h.cells {
		if h.cells[addr].used {
			fn(int32(addr))
		}
	}
}

// PointerDistances computes the |pointer - cell address| histogram over
// live cells, separately for car and cdr pointers — Clark's static pointer
// distance measurement (§3.2.1).
func (h *TwoPtr) PointerDistances() (car, cdr *stats.Histogram) {
	car, cdr = stats.NewHistogram(), stats.NewHistogram()
	for addr := range h.cells {
		c := &h.cells[addr]
		if !c.used {
			continue
		}
		if c.Car.Tag == TagCell {
			car.Add(absInt(int(c.Car.Val) - addr))
		}
		if c.Cdr.Tag == TagCell {
			cdr.Add(absInt(int(c.Cdr.Val) - addr))
		}
	}
	return car, cdr
}

// Linearize relocates the structure reachable from roots so that cdr
// pointers preferentially point at the next address (cdr-direction
// linearization, §3.2.1), returning new root words. Only structure
// reachable from roots survives; everything else is freed.
func (h *TwoPtr) Linearize(roots []Word) ([]Word, error) {
	type oldCell struct{ car, cdr Word }
	old := make(map[int32]oldCell)
	for addr := range h.cells {
		if h.cells[addr].used {
			old[int32(addr)] = oldCell{h.cells[addr].Car, h.cells[addr].Cdr}
		}
	}
	// Reset the heap.
	fresh := NewTwoPtr(h.capacity)
	fresh.atoms = h.atoms
	forward := make(map[int32]int32)
	var relocate func(w Word) (Word, error)
	relocate = func(w Word) (Word, error) {
		if w.Tag != TagCell {
			return w, nil
		}
		if to, ok := forward[w.Val]; ok {
			return Word{Tag: TagCell, Val: to}, nil
		}
		oc, ok := old[w.Val]
		if !ok {
			return NilWord, fmt.Errorf("%w: %d", ErrBadAddress, w.Val)
		}
		addr, err := fresh.Alloc(NilWord, NilWord)
		if err != nil {
			return NilWord, err
		}
		forward[w.Val] = addr
		// cdr first: allocating down the cdr chain immediately after the
		// cell places each cdr at address+1.
		cdr, err := relocate(oc.cdr)
		if err != nil {
			return NilWord, err
		}
		car, err := relocate(oc.car)
		if err != nil {
			return NilWord, err
		}
		fresh.cells[addr].Car = car
		fresh.cells[addr].Cdr = cdr
		return Word{Tag: TagCell, Val: addr}, nil
	}
	newRoots := make([]Word, len(roots))
	for i, r := range roots {
		nr, err := relocate(r)
		if err != nil {
			return nil, err
		}
		newRoots[i] = nr
	}
	*h = *fresh
	return newRoots, nil
}

// GrowWithin extends s by one zero element. Storage doubles as append's
// does, but never beyond limit elements, so a table grown on demand
// never holds more than its capacity.
func GrowWithin[T any](s []T, limit int) []T {
	if n := len(s); n == cap(s) {
		grown := make([]T, n, min(max(2*n, 16), limit))
		copy(grown, s)
		s = grown
	}
	var zero T
	return append(s, zero)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
