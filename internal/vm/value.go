package vm

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sexpr"
)

// Kind discriminates VM operand values. The VM's operand stack holds
// unboxed tagged-union Values: integers, booleans and nil live entirely
// in the EP and never round-trip through the heap's atom table; only
// list identifiers touch the SMALL machine. An atom word is materialised
// lazily, the first time a value escapes into the LP (cons, rplac,
// wrlist) — see escape rules in DESIGN.md "VM fast path".
type Kind uint8

const (
	// KNil is the nil object (also boolean false).
	KNil Kind = iota
	// KInt is an unboxed integer: I holds the value; W caches its heap
	// word (immediate, or interned outside the 32-bit range) once the
	// value has come from or escaped into the LP.
	KInt
	// KTrue is the symbol t (boolean true).
	KTrue
	// KAtom is any other interned atom (symbol, float, string): W holds
	// the atom word.
	KAtom
	// KList is a list object named by an LPT identifier held in I.
	KList
	// KHeap is an overflow-mode large identifier: W holds the raw heap
	// address (§4.3.2.3).
	KHeap
)

// Value is one VM operand: a stack-allocated tagged union in the style
// of funxy's vm.Value — a kind byte, an integer payload, and a word
// slot. It is passed and stored by value; nothing here escapes to the
// Go heap.
type Value struct {
	Kind Kind
	I    int64     // KInt payload, or KList entry identifier
	W    heap.Word // KAtom word, KHeap address, or cached intern of a KInt
}

// nilV is the nil operand.
var nilV = Value{Kind: KNil}

// trueV is the t operand.
var trueV = Value{Kind: KTrue}

func intV(i int64) Value { return Value{Kind: KInt, I: i} }

// truthy reports Lisp truth: anything but nil.
func truthy(x Value) bool { return x.Kind != KNil }

// isListKind reports whether x names a structure in the LP.
func isListKind(x Value) bool { return x.Kind == KList || x.Kind == KHeap }

// retain/release forward EP reference events to the machine. Immediates
// never touch the LPT, so the common int/bool/atom path is branch-only.
func (v *VM) retain(x Value) {
	if isListKind(x) {
		v.m.Retain(v.toCore(x))
	}
}

func (v *VM) release(x Value) {
	if isListKind(x) {
		v.m.Release(v.toCore(x))
	}
}

// fromCore converts an LP result into a VM operand, eagerly unboxing
// integer atoms (a cheap atom-table slice read) so subsequent
// arithmetic stays immediate. The caller's reference on list values
// carries over to the returned Value.
func (v *VM) fromCore(x core.Value) Value {
	switch x.Kind {
	case core.VNil:
		return nilV
	case core.VAtom:
		if x.Atom.Tag == heap.TagInt {
			return Value{Kind: KInt, I: int64(x.Atom.Val), W: x.Atom}
		}
		sv, err := v.m.Heap().Atoms().Value(x.Atom)
		if err == nil {
			switch a := sv.(type) {
			case sexpr.Int:
				return Value{Kind: KInt, I: int64(a), W: x.Atom}
			case sexpr.Symbol:
				if a == "t" {
					return trueV
				}
			}
		}
		return Value{Kind: KAtom, W: x.Atom}
	case core.VList:
		return Value{Kind: KList, I: int64(x.ID)}
	default:
		return Value{Kind: KHeap, W: x.Addr}
	}
}

// toCore converts a VM operand into an LP value, giving an escaping
// immediate its heap word. References are not adjusted.
func (v *VM) toCore(x Value) core.Value {
	switch x.Kind {
	case KNil:
		return core.NilValue
	case KInt:
		if x.W.Tag == heap.TagNil { // not yet given its word
			x.W = v.intWord(x.I)
		}
		return core.Value{Kind: core.VAtom, Atom: x.W}
	case KTrue:
		return core.Value{Kind: core.VAtom, Atom: v.trueWord()}
	case KAtom:
		return core.Value{Kind: core.VAtom, Atom: x.W}
	case KList:
		return core.Value{Kind: core.VList, ID: core.EntryID(x.I)}
	default:
		return core.Value{Kind: core.VHeap, Addr: x.W}
	}
}

// intWord returns an integer's heap word: an immediate word when it
// fits in 32 bits, which is nearly always, so escaping integers do not
// grow the atom table. A wider one is interned; the last-interned slot
// keeps a loop that conses the same wide value from hashing it each
// time.
func (v *VM) intWord(i int64) heap.Word {
	if w, ok := heap.IntWord(i); ok {
		return w
	}
	if v.lastIntW.Tag == heap.TagAtom && v.lastInt == i {
		return v.lastIntW
	}
	w := v.m.Heap().Atoms().Intern(sexpr.Int(i))
	v.lastInt, v.lastIntW = i, w
	return w
}

// trueWord interns the symbol t once per machine.
func (v *VM) trueWord() heap.Word {
	if v.tW.Tag != heap.TagAtom {
		v.tW = v.m.Heap().Atoms().Intern(sexpr.Symbol("t"))
	}
	return v.tW
}

// symWord interns the symbol operand of the instruction at pc, caching
// the word per program counter so each PUSHSYM site interns once.
func (v *VM) symWord(pc int, s string) heap.Word {
	if w := v.symCache[pc]; w.Tag == heap.TagAtom {
		return w
	}
	w := v.m.Heap().Atoms().Intern(sexpr.Symbol(s))
	v.symCache[pc] = w
	return w
}

// boolV maps a Go bool onto t/nil.
func boolV(b bool) Value {
	if b {
		return trueV
	}
	return nilV
}

// intArg extracts an integer operand. Every integer-valued operand is a
// KInt (fromCore unboxes eagerly), so any other kind is a type error.
func (v *VM) intArg(x Value) (int64, error) {
	if x.Kind == KInt {
		return x.I, nil
	}
	sv, _ := v.sexprOf(x)
	return 0, fmt.Errorf("vm: not a number: %s", sexpr.String(sv))
}

// symKey returns the atom-table index of a symbol operand (property-list
// keys). t is a symbol too; nil and everything else is rejected as the
// interpreter's get/putprop would.
func (v *VM) symKey(x Value) (int32, error) {
	switch x.Kind {
	case KTrue:
		return v.trueWord().Val, nil
	case KAtom:
		sv, err := v.m.Heap().Atoms().Value(x.W)
		if err != nil {
			return 0, err
		}
		if _, ok := sv.(sexpr.Symbol); ok {
			return x.W.Val, nil
		}
	}
	return 0, fmt.Errorf("vm: property keys must be symbols")
}

// sexprOf converts an operand to an s-expression. Immediates convert
// directly, without interning an atom; lists are decoded from the LP.
func (v *VM) sexprOf(x Value) (sexpr.Value, error) {
	switch x.Kind {
	case KNil:
		return nil, nil
	case KInt:
		return sexpr.Int(x.I), nil
	case KTrue:
		return sexpr.Symbol("t"), nil
	}
	return v.m.ValueOf(v.toCore(x))
}

// sx renders a VM operand as an s-expression (trace and I/O only; never
// on the untraced hot path).
func (v *VM) sx(x Value) sexpr.Value {
	sv, err := v.sexprOf(x)
	if err != nil {
		return sexpr.Symbol("<invalid>")
	}
	return sv
}

// renderText renders a VM operand to its printed text through the
// machine's direct renderer, reusing the VM's scratch buffer. The one
// allocation left is the returned string — the same copy the
// interpreter's collector pays in sexpr.String.
func (v *VM) renderText(x Value) string {
	buf, err := v.m.AppendTextOf(v.tbuf[:0], v.toCore(x))
	if err != nil {
		return "<invalid>"
	}
	v.tbuf = buf
	return string(buf)
}

// equality compares two operands in an equality mode: equal is
// structural, eq is identity, = compares numbers.
func (v *VM) equality(mode int64, a, b Value) (bool, error) {
	switch mode {
	case eqNumeric:
		x, err := v.intArg(a)
		if err != nil {
			return false, err
		}
		y, err := v.intArg(b)
		return float64(x) == float64(y), err // as the interpreter compares
	case eqIdentity:
		if isListKind(a) && isListKind(b) {
			if a != b {
				return false, errDistinctLists
			}
			return true, nil
		}
	}
	if !isListKind(a) && !isListKind(b) {
		if a.Kind != b.Kind {
			return false, nil
		}
		switch a.Kind {
		case KNil, KTrue:
			return true, nil
		case KInt:
			return a.I == b.I, nil
		default:
			return a.W == b.W, nil
		}
	}
	if !isListKind(a) || !isListKind(b) {
		return false, nil
	}
	return v.m.Equal(v.toCore(a), v.toCore(b))
}

// errDistinctLists is eq of two different lists. The interpreter
// answers nil unless both are the one cell of a quoted list met twice;
// the VM builds a quoted list afresh each time its quote runs, so it
// cannot tell those apart.
var errDistinctLists = errors.New("vm: eq of two different lists " + outsideLanguageHint)
