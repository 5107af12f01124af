// Package vm implements the §4.3.4 experiment: a compiler from the
// thesis's mini-Lisp (Lisp 1.0 scale: list primitives, cond, prog with
// labels and go, predicates, integer arithmetic, setq, read/write, def)
// to a stack machine with the list-manipulating functionality of SMALL,
// plus an emulator for that machine that executes list operations through
// a core.Machine — the stack, the LPT and the heap are exactly the three
// structures the thesis's emulator traced.
//
// The instruction mnemonics follow Figs 4.14/4.15 (BINDN, PUSHSTK,
// PUSHSYM, NEQUALP, SUBOP, MULOP, FCALL, FRETN, RDLIST, WRLIST, CDROP,
// SETQ, ...).
package vm

import "fmt"

// Opcode enumerates the stack machine instructions.
type Opcode uint8

const (
	// OpBindN binds the next pending argument (or nil) to frame slot Arg
	// (1-based), named Sym.
	OpBindN Opcode = iota
	// OpPushStk pushes the value of frame variable Arg (1-based offset).
	OpPushStk
	// OpPushName pushes the value of the dynamically nearest binding of
	// Sym (run-time environment search for non-locals).
	OpPushName
	// OpPushSym pushes an immediate constant (integer or symbol).
	OpPushSym
	// OpSetq stores TOS into frame variable Arg (leaves the value pushed,
	// Lisp setq semantics are value-producing; the compiler pops when the
	// value is unused).
	OpSetq
	// OpSetName stores TOS into the nearest dynamic binding of Sym.
	OpSetName
	// OpPop discards TOS.
	OpPop
	// OpDup duplicates TOS.
	OpDup
	// OpFCall calls function Sym with Arg arguments taken from the stack.
	OpFCall
	// OpFRetn returns from the current function with TOS as the value.
	OpFRetn
	// OpJump jumps to Target.
	OpJump
	// OpBrNil pops TOS and jumps to Target when it is nil.
	OpBrNil
	// OpNEqualP pops two values and jumps to Target when they are unequal
	// (the fused compare-and-branch of Fig 4.14); Arg is the equality
	// mode, as for OpEqualP.
	OpNEqualP
	// Arithmetic: pop two (TOS is the right operand), push the result.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	// List operations, executed on the SMALL machine.
	OpCar
	OpCdr
	OpCons
	OpRplaca
	OpRplacd
	// Predicates: pop operand(s), push t or nil. OpEqualP compares in the
	// equality mode in Arg.
	OpAtomP
	OpNullP
	OpEqualP
	OpGreaterP
	OpLessP
	OpNot
	// I/O.
	OpRdList // read the next input list into frame variable Arg and push it; with none left, push nil
	OpWrList // pop and print TOS
	// OpHalt stops the machine; TOS is the program result.
	OpHalt

	// --- superinstructions (peephole-fused accessor chains) ---

	// OpCadr is the fused cdr-then-car chain (the most common composite
	// accessor; see the CAR/CDR/CADR taxonomy in PAPERS.md).
	OpCadr
	// OpCaddr is the fused cdr-cdr-car chain.
	OpCaddr
	// OpCxr is the general fused accessor chain: Arg packs the step
	// count in bits 8.. and a car/cdr mask in bits 0-7 (bit j set means
	// step j takes car; steps run low bit first, i.e. rightmost cxr
	// letter first).
	OpCxr
	// OpCarStk / OpCdrStk fuse PUSHSTK with a single accessor: read
	// frame variable Arg and take its car/cdr without the intermediate
	// stack traffic (the frame keeps its reference; no retain/release
	// pair is spent on the temporary).
	OpCarStk
	OpCdrStk
	// OpAddImm / OpSubImm fuse PUSHSYM of an integer immediate with the
	// following ADDOP/SUBOP: TOS += Arg / TOS -= Arg.
	OpAddImm
	OpSubImm
	// OpSetqPop fuses SETQ with the POP that discards the statement
	// value: the operand's stack reference transfers to the frame slot.
	OpSetqPop
	// OpConsQ is CONSOP without a trace event: quoted literals are
	// assembled with it, since the interpreter's quote emits no cons
	// events.
	OpConsQ

	// --- builtin operations (library functions the benchmarks use) ---

	// OpList builds a list from the top Arg operands (conses right to
	// left, each cons traced, exactly as the interpreter's list).
	OpList
	// OpLength walks TOS with traced cdr steps and pushes the length.
	OpLength
	// Integer helpers: pop operand(s), push the integer result.
	OpAdd1
	OpSub1
	OpZeroP
	OpGeq
	OpLeq
	// OpMax / OpMin fold the top Arg integer operands.
	OpMax
	OpMin
	// OpGet pushes the Sym-keyed property of TOS's property list; OpPutprop
	// pops prop, value, symbol and stores value under (symbol, prop).
	OpGet
	OpPutprop

	// --- linking ---

	// OpFGuard precedes the arguments of a call whose callee (Sym) may
	// be undefined when the call runs: it raises the undefined-function
	// error before any argument is evaluated, as the interpreter does.
	OpFGuard
	// OpLink binds the defs of def group Arg of the running batch,
	// repointing every call site that names them, and pushes the last
	// def's name: a def's value.
	OpLink
	// OpUndef is the stub every call of an undefined function is linked
	// to; OpArity is the stub for a call with the wrong number of
	// arguments. Both raise the interpreter's error.
	OpUndef
	OpArity
	// OpUnbind ends the scope of a let's or prog's variables: frame
	// slots Arg (1-based) and up no longer answer dynamic lookups.
	OpUnbind
)

var opNames = map[Opcode]string{
	OpBindN: "BINDN", OpPushStk: "PUSHSTK", OpPushName: "PUSHNAME",
	OpPushSym: "PUSHSYM", OpSetq: "SETQ", OpSetName: "SETNAME",
	OpPop: "POP", OpDup: "DUP", OpFCall: "FCALL", OpFRetn: "FRETN", OpJump: "JUMP",
	OpBrNil: "BRNIL", OpNEqualP: "NEQUALP",
	OpAdd: "ADDOP", OpSub: "SUBOP", OpMul: "MULOP", OpDiv: "DIVOP",
	OpRem: "REMOP",
	OpCar: "CAROP", OpCdr: "CDROP", OpCons: "CONSOP",
	OpRplaca: "RPLACAOP", OpRplacd: "RPLACDOP",
	OpAtomP: "ATOMP", OpNullP: "NULLP", OpEqualP: "EQUALP",
	OpGreaterP: "GREATERP", OpLessP: "LESSP", OpNot: "NOTOP",
	OpRdList: "RDLIST", OpWrList: "WRLIST", OpHalt: "HALT",
	OpCadr: "CADR", OpCaddr: "CADDR", OpCxr: "CXR",
	OpCarStk: "CARSTK", OpCdrStk: "CDRSTK",
	OpAddImm: "ADDIMM", OpSubImm: "SUBIMM", OpSetqPop: "SETQPOP",
	OpConsQ: "CONSQ", OpList: "LISTOP", OpLength: "LENGTHOP",
	OpAdd1: "ADD1OP", OpSub1: "SUB1OP", OpZeroP: "ZEROPOP",
	OpGeq: "GEQOP", OpLeq: "LEQOP", OpMax: "MAXOP", OpMin: "MINOP",
	OpGet: "GETPROP", OpPutprop: "PUTPROP",
	OpFGuard: "FGUARD", OpLink: "LINK", OpUndef: "UNDEF", OpArity: "ARITY",
	OpUnbind: "UNBIND",
}

// cxrArg packs an accessor chain into an OpCxr operand: steps in the
// high bits, the car mask in the low byte (bit j set: step j is car).
func cxrArg(steps int, mask uint8) int64 { return int64(steps)<<8 | int64(mask) }

// cxrSteps unpacks an OpCxr operand.
func cxrSteps(arg int64) (steps int, mask uint8) { return int(arg >> 8), uint8(arg) }

// Instr is one instruction: 32 bytes.
type Instr struct {
	Op     Opcode
	Target int32  // jump or call target (instruction index)
	Arg    int64  // frame offset, argument count, or immediate integer
	Sym    string // name operand (BINDN, FCALL, PUSHSYM symbols, ...)
}

// Equality modes of OpEqualP and OpNEqualP.
const (
	eqStructural int64 = iota // equal
	eqIdentity                // eq
	eqNumeric                 // =
)

var eqModeNames = [...]string{eqStructural: "equal", eqIdentity: "eq", eqNumeric: "="}

// String renders the instruction in listing form.
func (i Instr) String() string {
	name := opNames[i.Op]
	switch i.Op {
	case OpBindN, OpPushName, OpSetName, OpFGuard:
		return fmt.Sprintf("%-8s %s", name, i.Sym)
	case OpFCall:
		return fmt.Sprintf("%-8s %s/%d", name, i.Sym, i.Arg)
	case OpPushSym:
		if i.Sym != "" {
			return fmt.Sprintf("%-8s %s", name, i.Sym)
		}
		return fmt.Sprintf("%-8s %d", name, i.Arg)
	case OpPushStk, OpSetq, OpSetqPop, OpRdList, OpCarStk, OpCdrStk,
		OpAddImm, OpSubImm, OpList, OpMax, OpMin, OpLink, OpUnbind:
		return fmt.Sprintf("%-8s %d", name, i.Arg)
	case OpCxr:
		steps, mask := cxrSteps(i.Arg)
		return fmt.Sprintf("%-8s %d/%#b", name, steps, mask)
	case OpEqualP:
		return fmt.Sprintf("%-8s %s", name, eqModeNames[i.Arg])
	case OpNEqualP:
		return fmt.Sprintf("%-8s %s @%d", name, eqModeNames[i.Arg], i.Target)
	case OpJump, OpBrNil:
		return fmt.Sprintf("%-8s @%d", name, i.Target)
	default:
		return name
	}
}

// Program is linked code: the two stubs at the front (undefined
// function, wrong argument count), then the function bodies, then the
// top-level code that starts at Entry; and the directory of the
// functions currently bound.
type Program struct {
	Code  []Instr
	Entry int
	Funcs map[string]*FuncInfo
}

// Program counters of the stubs every Program starts with.
const (
	pcUndef = iota
	pcArity
	nStubs
)

// FuncInfo describes one compiled function.
type FuncInfo struct {
	Name  string
	NArgs int
	Entry int
	End   int // one past the last instruction
}

// Listing renders the whole program as an assembly listing.
func (p *Program) Listing() string {
	out := ""
	for i, ins := range p.Code {
		label := ""
		for name, f := range p.Funcs {
			if f.Entry == i {
				label = name + ":"
			}
		}
		if i == p.Entry {
			label = "main:"
		}
		out += fmt.Sprintf("%-10s %4d  %s\n", label, i, ins)
	}
	return out
}
