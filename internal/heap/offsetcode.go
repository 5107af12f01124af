package heap

import (
	"fmt"

	"repro/internal/sexpr"
)

// OffsetCode is the Deutsch-style compact list representation surveyed at
// the end of §2.3.3.1: each word carries a car pointer and an 8-bit cdr
// code interpreted as
//
//	0         — the cdr is nil
//	1..127    — the cdr is the cell at (address + code)
//	128       — the cdr pointer is stored in the word at address+1
//	            (whose own code is the reserved spill marker 255)
//	129..254  — reserved (the original used them for indirect offsets,
//	            chosen for a 256-word page working set; our address space
//	            is flat so the direct spill at +1 covers those cases)
//
// The encoding generalises MIT cdr-coding: cdr-next is code 1, cdr-nil is
// code 0, and any forward offset up to 127 avoids a spill word entirely —
// which is why Deutsch chose it for a paged virtual memory, where a short
// hop stays in the working set.
type OffsetCode struct {
	words   []oword
	next    int32
	atoms   *Atoms
	touches int64
	// Spills counts cells whose cdr needed a spill word.
	Spills int64
}

type oword struct {
	Car  Word
	Code uint8
}

const (
	ocNil   = 0
	ocSpill = 128
	ocMark  = 255 // spill words carry this code
)

// NewOffsetCode returns an offset-coded heap with the given capacity.
func NewOffsetCode(capacity int) *OffsetCode {
	return &OffsetCode{words: make([]oword, capacity), atoms: NewAtoms()}
}

// Name implements Representation.
func (h *OffsetCode) Name() string { return "offsetcode" }

// Atoms exposes the atom table.
func (h *OffsetCode) Atoms() *Atoms { return h.atoms }

// Words implements Representation.
func (h *OffsetCode) Words() int { return int(h.next) }

// Touches implements Representation.
func (h *OffsetCode) Touches() int64 { return h.touches }

func (h *OffsetCode) alloc(n int32) (int32, error) {
	if int(h.next+n) > len(h.words) {
		return 0, ErrNoSpace
	}
	addr := h.next
	h.next += n
	return addr, nil
}

func (h *OffsetCode) cellAt(w Word) (int32, error) {
	if w.Tag != TagCell {
		return 0, ErrNotList
	}
	if w.Val < 0 || w.Val >= h.next {
		return 0, fmt.Errorf("%w: %d", ErrBadAddress, w.Val)
	}
	if h.words[w.Val].Code == ocMark {
		return 0, fmt.Errorf("%w: %d is a spill word", ErrBadAddress, w.Val)
	}
	return w.Val, nil
}

// Car implements Representation.
func (h *OffsetCode) Car(w Word) (Word, error) {
	addr, err := h.resolveInvisible(w)
	if err != nil {
		return NilWord, err
	}
	h.touches++
	return h.words[addr].Car, nil
}

// Cdr implements Representation.
func (h *OffsetCode) Cdr(w Word) (Word, error) {
	addr, err := h.resolveInvisible(w)
	if err != nil {
		return NilWord, err
	}
	h.touches++
	switch code := h.words[addr].Code; {
	case code == ocNil:
		return NilWord, nil
	case code < ocSpill:
		return Word{Tag: TagCell, Val: addr + int32(code)}, nil
	case code == ocSpill:
		h.touches++
		return h.words[addr+1].Car, nil
	default:
		return NilWord, fmt.Errorf("%w: reserved code %d", ErrBadAddress, code)
	}
}

// Rplaca overwrites the car field.
func (h *OffsetCode) Rplaca(w, v Word) error {
	addr, err := h.resolveInvisible(w)
	if err != nil {
		return err
	}
	h.touches++
	h.words[addr].Car = v
	return nil
}

// encodableOffset returns the single-word cdr code for a target, if one
// exists: nil, or a forward offset of 1..127 cells.
func (h *OffsetCode) encodableOffset(addr int32, v Word) (uint8, bool) {
	if v.Tag == TagNil {
		return ocNil, true
	}
	if v.Tag == TagCell {
		d := v.Val - addr
		if d >= 1 && d <= 127 {
			return uint8(d), true
		}
	}
	return 0, false
}

// Cons allocates a cell; if the cdr is a short forward offset or nil the
// cell is a single word, otherwise a spill pair.
func (h *OffsetCode) Cons(car, cdr Word) (Word, error) {
	// Try the compact single-word form. The cdr offset is computed
	// against the address we are about to allocate.
	if code, ok := h.encodableOffset(h.next, cdr); ok {
		addr, err := h.alloc(1)
		if err != nil {
			return NilWord, err
		}
		h.touches++
		h.words[addr] = oword{Car: car, Code: code}
		return Word{Tag: TagCell, Val: addr}, nil
	}
	addr, err := h.alloc(2)
	if err != nil {
		return NilWord, err
	}
	h.touches += 2
	h.words[addr] = oword{Car: car, Code: ocSpill}
	h.words[addr+1] = oword{Car: cdr, Code: ocMark}
	h.Spills++
	return Word{Tag: TagCell, Val: addr}, nil
}

// Rplacd re-encodes the cdr. A cell with a spill word updates in place; a
// compact cell can absorb any new offset that still fits, and otherwise
// must grow a spill — since neighbours cannot move, the cell is rebuilt
// as a fresh spill pair and the old word becomes an invisible pointer to
// it, exactly as the MIT scheme handles the same problem.
func (h *OffsetCode) Rplacd(w, v Word) error {
	addr, err := h.resolveInvisible(w)
	if err != nil {
		return err
	}
	cw := &h.words[addr]
	if cw.Code == ocSpill {
		h.touches++
		h.words[addr+1].Car = v
		return nil
	}
	if code, ok := h.encodableOffset(addr, v); ok {
		h.touches++
		cw.Code = code
		return nil
	}
	pair, err := h.alloc(2)
	if err != nil {
		return err
	}
	h.touches += 3
	h.words[pair] = oword{Car: cw.Car, Code: ocSpill}
	h.words[pair+1] = oword{Car: v, Code: ocMark}
	h.Spills++
	cw.Car = Word{Tag: TagInvisible, Val: pair}
	cw.Code = 1 // content irrelevant behind an invisible pointer
	return nil
}

// resolveInvisible follows invisible pointers left by Rplacd conversions
// and returns the address of the cell at the end of the chain, which it
// has checked with cellAt.
func (h *OffsetCode) resolveInvisible(w Word) (int32, error) {
	for hops := 0; hops < 64; hops++ {
		addr, err := h.cellAt(w)
		if err != nil {
			return 0, err
		}
		if h.words[addr].Car.Tag != TagInvisible {
			return addr, nil
		}
		h.touches++
		w = Word{Tag: TagCell, Val: h.words[addr].Car.Val}
	}
	return 0, fmt.Errorf("%w: invisible chain too long", ErrBadAddress)
}

// Build implements Representation: each list level is laid out as a
// contiguous run of code-1 words ending in code-0 (or a spill pair for a
// dotted tail) — the working-set-friendly layout the scheme was designed
// around.
func (h *OffsetCode) Build(v sexpr.Value) (Word, error) {
	c, ok := v.(*sexpr.Cell)
	if !ok {
		return h.atoms.Intern(v), nil
	}
	var elems []sexpr.Value
	var tail sexpr.Value
	for {
		elems = append(elems, c.Car)
		switch next := c.Cdr.(type) {
		case *sexpr.Cell:
			c = next
		case nil:
			goto done
		default:
			tail = next
			goto done
		}
	}
done:
	cars := make([]Word, len(elems))
	for i, e := range elems {
		cw, err := h.Build(e)
		if err != nil {
			return NilWord, err
		}
		cars[i] = cw
	}
	var tailWord Word
	if tail != nil {
		tw, err := h.Build(tail)
		if err != nil {
			return NilWord, err
		}
		tailWord = tw
	}
	size := int32(len(elems))
	if tail != nil {
		size++
	}
	addr, err := h.alloc(size)
	if err != nil {
		return NilWord, err
	}
	h.touches += int64(size)
	for i, cw := range cars {
		code := uint8(1)
		if i == len(cars)-1 {
			if tail == nil {
				code = ocNil
			} else {
				code = ocSpill
			}
		}
		h.words[addr+int32(i)] = oword{Car: cw, Code: code}
	}
	if tail != nil {
		h.words[addr+size-1] = oword{Car: tailWord, Code: ocMark}
	}
	return Word{Tag: TagCell, Val: addr}, nil
}

// Decode implements Representation.
func (h *OffsetCode) Decode(w Word) (sexpr.Value, error) {
	switch w.Tag {
	case TagNil, TagAtom:
		return h.atoms.Value(w)
	}
	addr, err := h.resolveInvisible(w)
	if err != nil {
		return nil, err
	}
	w = Word{Tag: TagCell, Val: addr}
	car, err := h.Car(w)
	if err != nil {
		return nil, err
	}
	cdr, err := h.Cdr(w)
	if err != nil {
		return nil, err
	}
	carV, err := h.Decode(car)
	if err != nil {
		return nil, err
	}
	cdrV, err := h.Decode(cdr)
	if err != nil {
		return nil, err
	}
	return sexpr.Cons(carV, cdrV), nil
}
