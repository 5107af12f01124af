package core

import (
	"fmt"
	"strconv"

	"repro/internal/heap"
	"repro/internal/sexpr"
)

// This file renders machine values to printed text directly from the LPT
// and heap, without materialising an intermediate s-expression tree.
// Trace collection prints every primitive's operands, so on traced runs
// the renderer is the hottest observability path: decoding via ValueOf
// costs two allocations per list cell per event (the Cons node, then the
// string builder's copy), where AppendTextOf costs none beyond the
// caller's reusable buffer.

// AppendTextOf appends the printed representation of v to buf and
// returns the extended buffer. The text is byte-identical to
// sexpr.String applied to ValueOf(v) — the differential trace tests rely
// on that. Like ValueOf, it does not disturb reference counts.
func (m *Machine) AppendTextOf(buf []byte, v Value) ([]byte, error) {
	c, err := m.textCursorOf(v)
	if err != nil {
		return nil, err
	}
	return m.appendCursor(buf, c)
}

// textCursor is a read-only rendering position: either an LPT entry
// (isWord false) or a raw heap word (atom, nil or cell).
type textCursor struct {
	isWord bool
	id     EntryID
	w      heap.Word
}

func (m *Machine) textCursorOf(v Value) (textCursor, error) {
	switch v.Kind {
	case VNil:
		return textCursor{isWord: true, w: heap.NilWord}, nil
	case VAtom:
		return textCursor{isWord: true, w: v.Atom}, nil
	case VHeap:
		return textCursor{isWord: true, w: v.Addr}, nil
	case VList:
		if !m.lpt.valid(v.ID) {
			return textCursor{}, fmt.Errorf("core: stale identifier %d", v.ID)
		}
		return textCursor{id: v.ID}, nil
	}
	return textCursor{}, fmt.Errorf("core: bad value kind %d", v.Kind)
}

// resolveCursor reduces c to either a cell position (isCell true) or an
// atom/nil word. Unexpanded entries forward to their heap object.
func (m *Machine) resolveCursor(c textCursor) (textCursor, bool, error) {
	if !c.isWord {
		if !m.lpt.valid(c.id) {
			return textCursor{}, false, fmt.Errorf("core: stale identifier %d", c.id)
		}
		e := m.lpt.get(c.id)
		if !e.hasAddr {
			return c, true, nil
		}
		c = textCursor{isWord: true, w: e.addr}
	}
	return c, c.w.Tag == heap.TagCell, nil
}

// cursorChildren returns the car and cdr positions of a resolved cell.
func (m *Machine) cursorChildren(c textCursor) (car, cdr textCursor, err error) {
	if !c.isWord {
		e := m.lpt.get(c.id)
		return childCursor(e.car), childCursor(e.cdr), nil
	}
	cw, err := m.heap.Car(c.w)
	if err != nil {
		return textCursor{}, textCursor{}, err
	}
	dw, err := m.heap.Cdr(c.w)
	if err != nil {
		return textCursor{}, textCursor{}, err
	}
	return textCursor{isWord: true, w: cw}, textCursor{isWord: true, w: dw}, nil
}

func childCursor(c child) textCursor {
	switch c.kind {
	case childAtom:
		return textCursor{isWord: true, w: c.atom()}
	case childEntry:
		return textCursor{id: c.id}
	default:
		return textCursor{isWord: true, w: heap.NilWord}
	}
}

// appendCursor mirrors sexpr's Cell printer: proper lists render as
// "(a b c)", a non-list cdr as "(a . b)".
func (m *Machine) appendCursor(buf []byte, c textCursor) ([]byte, error) {
	rc, isCell, err := m.resolveCursor(c)
	if err != nil {
		return nil, err
	}
	if !isCell {
		return m.appendAtomText(buf, rc.w)
	}
	buf = append(buf, '(')
	for {
		car, cdr, err := m.cursorChildren(rc)
		if err != nil {
			return nil, err
		}
		if buf, err = m.appendCursor(buf, car); err != nil {
			return nil, err
		}
		rcdr, cdrIsCell, err := m.resolveCursor(cdr)
		if err != nil {
			return nil, err
		}
		if cdrIsCell {
			buf = append(buf, ' ')
			rc = rcdr
			continue
		}
		if rcdr.w.Tag == heap.TagNil {
			return append(buf, ')'), nil
		}
		buf = append(buf, ' ', '.', ' ')
		if buf, err = m.appendAtomText(buf, rcdr.w); err != nil {
			return nil, err
		}
		return append(buf, ')'), nil
	}
}

// appendAtomText appends the printed form of an atom, immediate integer
// or nil word. Atom-table texts are cached per index; the table only
// grows between machine Resets, so the cache cannot go stale.
func (m *Machine) appendAtomText(buf []byte, w heap.Word) ([]byte, error) {
	switch w.Tag {
	case heap.TagNil:
		return append(buf, "nil"...), nil
	case heap.TagInt:
		return strconv.AppendInt(buf, int64(w.Val), 10), nil
	}
	i := int(w.Val)
	if i >= 0 && i < len(m.atomText) && m.atomText[i] != "" {
		return append(buf, m.atomText[i]...), nil
	}
	sv, err := m.heap.Atoms().Value(w)
	if err != nil {
		return nil, err
	}
	s := sexpr.String(sv)
	if i >= 0 {
		for len(m.atomText) <= i {
			m.atomText = append(m.atomText, "")
		}
		m.atomText[i] = s
	}
	return append(buf, s...), nil
}
