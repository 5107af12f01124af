package vm

import (
	"fmt"

	"repro/internal/lisp"
	"repro/internal/sexpr"
)

// CompileError is a compilation failure.
type CompileError struct {
	Msg  string
	Form sexpr.Value
}

func (e *CompileError) Error() string {
	if e.Form == nil {
		return "vm: " + e.Msg
	}
	return fmt.Sprintf("vm: %s: %s", e.Msg, sexpr.String(e.Form))
}

func cerrf(form sexpr.Value, format string, args ...any) error {
	return &CompileError{Msg: fmt.Sprintf(format, args...), Form: form}
}

// outsideLanguage builds the error for a form the interpreter evaluates
// but the VM does not compile, naming the session option that selects
// the interpreter.
func outsideLanguage(what string, form sexpr.Value) error {
	return cerrf(form, "%s %s", what, outsideLanguageHint)
}

const outsideLanguageHint = `is outside the vm backend's language (create the session with "backend":"lisp" to use it)`

// vmBuiltin reports whether call compiles a call of head itself, as a
// special form or a primitive, rather than as a call of a user function.
func vmBuiltin(head sexpr.Symbol) bool {
	switch head {
	case "quote", "cond", "let", "prog", "go", "return", "setq", "and", "or", symRead, "print", "putprop":
		return true
	}
	_, un := unOps[head]
	_, bin := binOps[head]
	_, eq := eqModes[head]
	_, nary := naryOps[head]
	_, _, cxr := cxrName(head)
	return un || bin || eq || nary || cxr
}

// compiler compiles one unit: a function body or a batch of top-level
// forms, separately compiled code whose jump targets are unit-relative
// and whose FCALL targets are left for the linker. guard, when set,
// reports whether a call of the named function must check at run time,
// before its arguments are evaluated, that the function is defined.
type compiler struct {
	code  []Instr
	guard func(name string) bool
}

type patch struct {
	at   int
	name string
}

// fnCompiler compiles one function body.
type fnCompiler struct {
	c *compiler
	// vars maps names to 1-based frame offsets (arguments then locals).
	vars  map[string]int64
	nvars int64
	// labels/gotos implement prog labels.
	labels map[string]int
	gotos  []patch
	// progs counts the progs around the position being compiled;
	// ownProg is set inside a prog whose value is the function's, and
	// tail while the form being compiled gives the function its value.
	progs   int
	ownProg bool
	tail    bool
}

// Compile translates a program: any number of (def name (lambda ...))
// forms plus top-level expressions, whose last value is the result.
func Compile(src string) (*Program, error) {
	forms, err := sexpr.ParseAll(src)
	if err != nil {
		return nil, err
	}
	return CompileForms(forms)
}

// CompileForms compiles parsed forms into a standalone program. Every
// def is bound before the top-level expressions run, whatever its
// position, and every called function must be defined.
func CompileForms(forms []sexpr.Value) (*Program, error) {
	l := newLinker()
	top := newTopCompiler(nil)
	for _, f := range forms {
		if !isDef(f) {
			if err := top.form(f); err != nil {
				return nil, err
			}
			continue
		}
		name, nargs, code, err := compileDef(f, nil)
		if err != nil {
			return nil, err
		}
		l.bind(l.place(name, nargs, code))
	}
	code, err := top.finish()
	if err != nil {
		return nil, err
	}
	l.prog.Entry = l.add(code)
	if name, ok := l.firstUndefined(); ok {
		return nil, cerrf(sexpr.Symbol(name), "undefined function")
	}
	return l.prog, nil
}

func isDef(f sexpr.Value) bool {
	c, ok := f.(*sexpr.Cell)
	return ok && (c.Car == sexpr.Symbol("def") || c.Car == sexpr.Symbol("defun"))
}

// topCompiler compiles top-level forms, in order, into one unit that
// leaves the last form's value (nil when there is none) on the stack and
// halts.
type topCompiler struct {
	fc *fnCompiler
	n  int // forms so far
}

func newTopCompiler(guard func(string) bool) *topCompiler {
	c := &compiler{guard: guard}
	return &topCompiler{fc: c.newFn()}
}

// next discards the previous form's value.
func (t *topCompiler) next() {
	if t.n > 0 {
		t.fc.emit(Instr{Op: OpPop})
	}
	t.n++
}

// form compiles one top-level expression.
func (t *topCompiler) form(f sexpr.Value) error {
	t.next()
	return t.fc.expr(f)
}

// emit adds one instruction that computes a form's value.
func (t *topCompiler) emit(ins Instr) {
	t.next()
	t.fc.emit(ins)
}

// finish completes and optimizes the unit.
func (t *topCompiler) finish() ([]Instr, error) {
	if t.n == 0 {
		t.fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
	}
	t.fc.emit(Instr{Op: OpHalt})
	if err := t.fc.resolveGotos(); err != nil {
		return nil, err
	}
	return optimize(t.fc.c.code), nil
}

func (c *compiler) newFn() *fnCompiler {
	return &fnCompiler{c: c, vars: make(map[string]int64), labels: make(map[string]int)}
}

// defName returns the name a def form defines.
func defName(f sexpr.Value) (sexpr.Symbol, error) {
	name, ok := sexpr.Car(sexpr.Cdr(f)).(sexpr.Symbol)
	if !ok {
		return "", cerrf(f, "def of non-symbol")
	}
	return name, nil
}

// compileDef compiles a def or defun form into a function unit.
func compileDef(f sexpr.Value, guard func(string) bool) (name string, nargs int, code []Instr, err error) {
	sym, err := defName(f)
	if err != nil {
		return "", 0, nil, err
	}
	var params sexpr.Value
	var body sexpr.Value
	if sexpr.Car(f) == sexpr.Symbol("def") {
		lam := sexpr.Car(sexpr.Cdr(sexpr.Cdr(f)))
		if sexpr.Car(lam) != sexpr.Symbol("lambda") {
			if _, ok := lam.(*sexpr.Cell); ok {
				return "", 0, nil, outsideLanguage("a def of "+sexpr.String(sexpr.Car(lam)), f)
			}
			return "", 0, nil, cerrf(f, "def requires a lambda")
		}
		params = sexpr.Car(sexpr.Cdr(lam))
		body = sexpr.Cdr(sexpr.Cdr(lam))
	} else { // defun
		params = sexpr.Car(sexpr.Cdr(sexpr.Cdr(f)))
		body = sexpr.Cdr(sexpr.Cdr(sexpr.Cdr(f)))
	}
	c := &compiler{guard: guard}
	fc := c.newFn()
	for p := params; ; {
		pc, ok := p.(*sexpr.Cell)
		if !ok {
			break
		}
		pname, ok := pc.Car.(sexpr.Symbol)
		if !ok {
			return "", 0, nil, cerrf(f, "non-symbol parameter")
		}
		fc.bind(string(pname))
		nargs++
		p = pc.Cdr
	}
	// Body: value of the last form is returned.
	n := 0
	for b := body; ; {
		bc, ok := b.(*sexpr.Cell)
		if !ok {
			break
		}
		if n > 0 {
			fc.emit(Instr{Op: OpPop})
		}
		_, more := bc.Cdr.(*sexpr.Cell)
		fc.tail = !more
		if err := fc.expr(bc.Car); err != nil {
			return "", 0, nil, err
		}
		n++
		b = bc.Cdr
	}
	if n == 0 {
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
	}
	fc.emit(Instr{Op: OpFRetn})
	if err := fc.resolveGotos(); err != nil {
		return "", 0, nil, err
	}
	return string(sym), nargs, optimize(c.code), nil
}

func (fc *fnCompiler) emit(i Instr) int {
	fc.c.code = append(fc.c.code, i)
	return len(fc.c.code) - 1
}

func (fc *fnCompiler) here() int { return len(fc.c.code) }

// setTarget points the jump at pc at target.
func (fc *fnCompiler) setTarget(pc, target int) { fc.c.code[pc].Target = int32(target) }

// bind declares a new frame variable and emits its BINDN.
func (fc *fnCompiler) bind(name string) {
	fc.nvars++
	fc.vars[name] = fc.nvars
	fc.emit(Instr{Op: OpBindN, Sym: name, Arg: fc.nvars})
}

// scope records the variables a let or prog is about to bind, so that
// endScope can end their scope with the construct.
type scope struct {
	first int64 // the construct's first frame slot
	saved map[string]int64
}

func (fc *fnCompiler) beginScope(names []string) scope {
	sc := scope{first: fc.nvars + 1, saved: make(map[string]int64, len(names))}
	for _, n := range names {
		if _, seen := sc.saved[n]; !seen {
			sc.saved[n] = fc.vars[n] // 0: not bound outside
		}
	}
	return sc
}

// endScope restores the compile-time bindings the construct shadowed and
// emits the UNBIND that hides its slots from dynamic lookup: the
// interpreter drops a let's or prog's bindings when it ends.
func (fc *fnCompiler) endScope(sc scope) {
	for n, off := range sc.saved {
		if off == 0 {
			delete(fc.vars, n)
		} else {
			fc.vars[n] = off
		}
	}
	if fc.nvars >= sc.first {
		fc.emit(Instr{Op: OpUnbind, Arg: sc.first})
	}
}

func (fc *fnCompiler) resolveGotos() error {
	for _, g := range fc.gotos {
		target, ok := fc.labels[g.name]
		if !ok {
			return cerrf(sexpr.Symbol(g.name), "go to undefined label")
		}
		fc.setTarget(g.at, target)
	}
	fc.gotos = fc.gotos[:0]
	return nil
}

var binOps = map[sexpr.Symbol]Opcode{
	"+": OpAdd, "add": OpAdd,
	"-": OpSub, "subtract": OpSub,
	"*": OpMul, "times": OpMul,
	"/": OpDiv, "quotient": OpDiv,
	"remainder": OpRem, "mod": OpRem,
	"cons": OpCons, "rplaca": OpRplaca, "rplacd": OpRplacd,
	"greaterp": OpGreaterP, ">": OpGreaterP,
	"lessp": OpLessP, "<": OpLessP,
	"equal": OpEqualP, "eq": OpEqualP, "=": OpEqualP,
	">=": OpGeq, "<=": OpLeq,
	"get": OpGet,
}

var unOps = map[sexpr.Symbol]Opcode{
	"car": OpCar, "cdr": OpCdr,
	"atom": OpAtomP, "null": OpNullP, "not": OpNot,
	"add1": OpAdd1, "sub1": OpSub1, "zerop": OpZeroP,
	"length": OpLength,
}

// eqModes gives the equality mode (the Arg of OpEqualP and OpNEqualP)
// of each equality predicate.
var eqModes = map[sexpr.Symbol]int64{
	"equal": eqStructural, "eq": eqIdentity, "=": eqNumeric,
}

// naryArith names the binOps the interpreter folds over any number of
// arguments; the VM compiles their two-argument form only.
var naryArith = map[sexpr.Symbol]bool{
	"+": true, "add": true, "-": true, "subtract": true, "*": true, "times": true,
}

// naryOps take any number of arguments pushed left to right, with the
// count in Arg.
var naryOps = map[sexpr.Symbol]Opcode{
	"list": OpList, "max": OpMax, "min": OpMin,
}

// symRead keeps the special-form dispatch off op-name string literals
// (the opdispatch analyzer covers this package).
const symRead = sexpr.Symbol("read")

// expr compiles one expression, leaving its value on the stack.
func (fc *fnCompiler) expr(f sexpr.Value) error {
	tail := fc.tail
	fc.tail = false
	switch t := f.(type) {
	case nil:
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
		return nil
	case sexpr.Int:
		fc.emit(Instr{Op: OpPushSym, Arg: int64(t)})
		return nil
	case sexpr.Symbol:
		if t == "T" {
			t = "t"
		}
		if t == "t" || t == "nil" {
			fc.emit(Instr{Op: OpPushSym, Sym: string(t)})
			return nil
		}
		if off, ok := fc.vars[string(t)]; ok {
			fc.emit(Instr{Op: OpPushStk, Arg: off})
		} else {
			// Non-local: run-time environment search (§4.3.1).
			fc.emit(Instr{Op: OpPushName, Sym: string(t)})
		}
		return nil
	case *sexpr.Cell:
		return fc.call(t, tail)
	case sexpr.Float:
		return outsideLanguage("a float", f)
	case sexpr.Str:
		return outsideLanguage("a string", f)
	default:
		return cerrf(f, "cannot compile")
	}
}

func (fc *fnCompiler) call(f *sexpr.Cell, tail bool) error {
	head, ok := f.Car.(sexpr.Symbol)
	if !ok {
		if sexpr.Car(f.Car) == sexpr.Symbol("lambda") {
			return outsideLanguage("a lambda application", f)
		}
		return cerrf(f, "bad function position")
	}
	// The interpreter never calls a user function that one of its
	// builtins shadows, so a builtin the VM does not compile is an error.
	if !vmBuiltin(head) && lisp.IsBuiltin(head) {
		return outsideLanguage(string(head), f)
	}
	args := listElems(f.Cdr)
	switch head {
	case "quote":
		return fc.quoted(sexpr.Car(f.Cdr)) // (quote) is nil, as in the interpreter
	case "cond":
		return fc.cond(args, tail)
	case "let":
		return fc.letForm(args, tail)
	case "prog":
		return fc.progForm(args, tail)
	case "go":
		label, ok := sexpr.Car(f.Cdr).(sexpr.Symbol)
		if !ok || len(args) != 1 {
			return cerrf(f, "go wants a label")
		}
		at := fc.emit(Instr{Op: OpJump})
		fc.gotos = append(fc.gotos, patch{at: at, name: string(label)})
		// go never falls through, but the expression grammar wants a
		// value; emit an unreachable nil for stack-shape regularity.
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
		return nil
	case "return":
		if len(args) != 1 {
			return cerrf(f, "return wants a value")
		}
		// FRETN leaves the function. That is where the interpreter's return
		// goes from outside any prog, and from a prog whose value is the
		// function's; from any other prog it goes on after that prog.
		if fc.progs > 1 || fc.progs == 1 && !fc.ownProg {
			return outsideLanguage("a return from a prog whose value is not the function's", f)
		}
		if err := fc.expr(args[0]); err != nil {
			return err
		}
		fc.emit(Instr{Op: OpFRetn})
		return nil
	case "setq":
		if len(args) != 2 {
			return cerrf(f, "setq wants name and value")
		}
		name, ok := args[0].(sexpr.Symbol)
		if !ok {
			return cerrf(f, "setq of non-symbol")
		}
		if err := fc.expr(args[1]); err != nil {
			return err
		}
		if off, ok := fc.vars[string(name)]; ok {
			fc.emit(Instr{Op: OpSetq, Arg: off})
		} else {
			fc.emit(Instr{Op: OpSetName, Sym: string(name)})
		}
		return nil
	case "and":
		return fc.andOr(args, true)
	case "or":
		return fc.andOr(args, false)
	case symRead:
		// (read var): read a list and bind it to var (Fig 4.15's RDLIST).
		name, _ := sexpr.Car(f.Cdr).(sexpr.Symbol)
		off, ok := fc.vars[string(name)]
		if !ok || len(args) != 1 {
			return outsideLanguage("read of other than one local variable", f)
		}
		fc.emit(Instr{Op: OpRdList, Arg: off})
		return nil
	case "print":
		if len(args) != 1 {
			return outsideLanguage("print of other than one value", f)
		}
		if err := fc.expr(args[0]); err != nil {
			return err
		}
		fc.emit(Instr{Op: OpWrList}) // the printed value stays as the result
		return nil
	}
	if op, ok := unOps[head]; ok {
		if len(args) != 1 {
			return cerrf(f, "%s wants one argument", head)
		}
		if err := fc.expr(args[0]); err != nil {
			return err
		}
		fc.emit(Instr{Op: op})
		return nil
	}
	if mode, ok := eqModes[head]; ok {
		if len(args) != 2 {
			return cerrf(f, "%s wants two arguments", head)
		}
		if err := fc.expr(args[0]); err != nil {
			return err
		}
		if err := fc.expr(args[1]); err != nil {
			return err
		}
		fc.emit(Instr{Op: OpEqualP, Arg: mode})
		return nil
	}
	if op, ok := binOps[head]; ok {
		if len(args) != 2 {
			if naryArith[head] {
				return outsideLanguage(fmt.Sprintf("%s of %d arguments", head, len(args)), f)
			}
			return cerrf(f, "%s wants two arguments", head)
		}
		if err := fc.expr(args[0]); err != nil {
			return err
		}
		if err := fc.expr(args[1]); err != nil {
			return err
		}
		fc.emit(Instr{Op: op})
		return nil
	}
	if op, ok := naryOps[head]; ok {
		if (op == OpMax || op == OpMin) && len(args) == 0 {
			return cerrf(f, "%s wants at least one argument", head)
		}
		for _, a := range args {
			if err := fc.expr(a); err != nil {
				return err
			}
		}
		fc.emit(Instr{Op: op, Arg: int64(len(args))})
		return nil
	}
	if head == "putprop" {
		if len(args) != 3 {
			return cerrf(f, "putprop wants symbol, value, property")
		}
		for _, a := range args {
			if err := fc.expr(a); err != nil {
				return err
			}
		}
		fc.emit(Instr{Op: OpPutprop})
		return nil
	}
	if steps, mask, ok := cxrName(head); ok {
		if len(args) != 1 {
			return cerrf(f, "%s wants one argument", head)
		}
		if err := fc.expr(args[0]); err != nil {
			return err
		}
		switch {
		case steps == 2 && mask == 0b10:
			fc.emit(Instr{Op: OpCadr})
		case steps == 3 && mask == 0b100:
			fc.emit(Instr{Op: OpCaddr})
		default:
			fc.emit(Instr{Op: OpCxr, Arg: cxrArg(steps, mask)})
		}
		return nil
	}
	// User function call: push arguments, FCALL. The linker resolves
	// the target. A callee that may still be undefined when the call
	// runs is checked first, since the interpreter reports an undefined
	// function before it evaluates any argument.
	if fc.c.guard != nil && fc.c.guard(string(head)) {
		fc.emit(Instr{Op: OpFGuard, Sym: string(head)})
	}
	for _, a := range args {
		if err := fc.expr(a); err != nil {
			return err
		}
	}
	fc.emit(Instr{Op: OpFCall, Sym: string(head), Arg: int64(len(args))})
	return nil
}

// cxrName recognises composite accessors (cadr .. cddddr): a leading c,
// a trailing r, and 2-4 a/d letters between, the interpreter's range (a
// longer name is an ordinary function name there). The returned
// mask/steps follow the OpCxr encoding: step j (low bit first) is the
// j-th letter from the right, bit set for car.
func cxrName(head sexpr.Symbol) (steps int, mask uint8, ok bool) {
	s := string(head)
	if len(s) < 4 || len(s) > 6 || s[0] != 'c' || s[len(s)-1] != 'r' {
		return 0, 0, false
	}
	mid := s[1 : len(s)-1]
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

// quoted compiles a literal: atoms push immediates; lists are built with
// CONSQ chains at run time (the machine has no literal pool). CONSQ is
// the untraced cons — the interpreter's quote emits no cons events, and
// the trace streams must match.
func (fc *fnCompiler) quoted(v sexpr.Value) error {
	switch t := v.(type) {
	case nil:
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
	case sexpr.Int:
		fc.emit(Instr{Op: OpPushSym, Arg: int64(t)})
	case sexpr.Symbol:
		fc.emit(Instr{Op: OpPushSym, Sym: string(t)})
	case *sexpr.Cell:
		if err := fc.quoted(t.Car); err != nil {
			return err
		}
		if err := fc.quoted(t.Cdr); err != nil {
			return err
		}
		fc.emit(Instr{Op: OpConsQ})
	default:
		return cerrf(v, "cannot quote")
	}
	return nil
}

// cond compiles (cond (c1 b1...) ...). The fused NEQUALP of Fig 4.14 is
// used when a condition is a two-argument equality test.
// tail reports whether the cond gives the function its value.
func (fc *fnCompiler) cond(legs []sexpr.Value, tail bool) error {
	var endJumps []int
	sawT := false
	for _, leg := range legs {
		lc, ok := leg.(*sexpr.Cell)
		if !ok {
			return cerrf(leg, "malformed cond leg")
		}
		test := lc.Car
		body := listElems(lc.Cdr)
		isFinalT := test == sexpr.Symbol("t")
		if len(body) == 0 && !isFinalT {
			// A leg with no body returns the test's value: branch on a
			// copy and keep the original when it is non-nil.
			if err := fc.expr(test); err != nil {
				return err
			}
			fc.emit(Instr{Op: OpDup})
			next := fc.emit(Instr{Op: OpBrNil})
			endJumps = append(endJumps, fc.emit(Instr{Op: OpJump}))
			fc.setTarget(next, fc.here())
			fc.emit(Instr{Op: OpPop})
			continue
		}
		skip := -1
		if !isFinalT {
			if a, b, mode, ok := equalityTest(test); ok {
				if err := fc.expr(a); err != nil {
					return err
				}
				if err := fc.expr(b); err != nil {
					return err
				}
				skip = fc.emit(Instr{Op: OpNEqualP, Arg: mode})
			} else {
				if err := fc.expr(test); err != nil {
					return err
				}
				skip = fc.emit(Instr{Op: OpBrNil})
			}
		}
		if len(body) == 0 { // (t): the leg's value is t
			fc.emit(Instr{Op: OpPushSym, Sym: "t"})
		}
		for i, b := range body {
			if i > 0 {
				fc.emit(Instr{Op: OpPop})
			}
			fc.tail = tail && i == len(body)-1
			if err := fc.expr(b); err != nil {
				return err
			}
		}
		endJumps = append(endJumps, fc.emit(Instr{Op: OpJump}))
		if skip >= 0 {
			fc.setTarget(skip, fc.here())
		}
		if isFinalT {
			sawT = true
			break
		}
	}
	if !sawT {
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"}) // no leg fired
	}
	end := fc.here()
	for _, j := range endJumps {
		fc.setTarget(j, end)
	}
	return nil
}

// equalityTest recognises (= a b) / (equal a b) / (eq a b).
func equalityTest(test sexpr.Value) (a, b sexpr.Value, mode int64, ok bool) {
	c, isCell := test.(*sexpr.Cell)
	if !isCell {
		return nil, nil, 0, false
	}
	head, _ := c.Car.(sexpr.Symbol)
	mode, isEq := eqModes[head]
	if args := listElems(c.Cdr); isEq && len(args) == 2 {
		return args[0], args[1], mode, true
	}
	return nil, nil, 0, false
}

// letForm compiles (let ((name val)...) body...): the initialisers are
// evaluated, then bound as fresh frame variables via BINDN with the
// values routed through the pending-argument channel of the frame — the
// same mechanism function entry uses.
// tail reports whether the let gives the function its value.
func (fc *fnCompiler) letForm(args []sexpr.Value, tail bool) error {
	if len(args) == 0 {
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
		return nil
	}
	type spec struct {
		name sexpr.Symbol
		init sexpr.Value
	}
	var specs []spec
	for _, s := range listElems(args[0]) {
		switch b := s.(type) {
		case sexpr.Symbol:
			specs = append(specs, spec{b, nil})
		case *sexpr.Cell:
			name, ok := b.Car.(sexpr.Symbol)
			if !ok {
				return cerrf(s, "let of non-symbol")
			}
			specs = append(specs, spec{name, sexpr.Car(sexpr.Cdr(b))})
		default:
			return cerrf(s, "malformed let binding")
		}
	}
	// Evaluate every initialiser BEFORE the names enter scope (they must
	// see outer bindings), leaving the values on the stack; then declare
	// the variables and assign from the stack in reverse.
	for _, sp := range specs {
		if sp.init == nil {
			fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
			continue
		}
		if err := fc.expr(sp.init); err != nil {
			return err
		}
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = string(sp.name)
	}
	sc := fc.beginScope(names)
	for _, n := range names {
		fc.bind(n)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		fc.emit(Instr{Op: OpSetq, Arg: fc.vars[names[i]]})
		fc.emit(Instr{Op: OpPop})
	}
	body := args[1:]
	if len(body) == 0 {
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
	}
	for i, b := range body {
		if i > 0 {
			fc.emit(Instr{Op: OpPop})
		}
		fc.tail = tail && i == len(body)-1
		if err := fc.expr(b); err != nil {
			return err
		}
	}
	fc.endScope(sc)
	return nil
}

// progForm compiles (prog (locals...) body...) with labels and go; tail
// reports whether the prog gives the function its value.
func (fc *fnCompiler) progForm(args []sexpr.Value, tail bool) error {
	saved := fc.ownProg
	fc.progs++
	fc.ownProg = tail
	defer func() { fc.progs--; fc.ownProg = saved }()
	if len(args) == 0 {
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
		return nil
	}
	var names []string
	for _, l := range listElems(args[0]) {
		name, ok := l.(sexpr.Symbol)
		if !ok {
			return cerrf(args[0], "non-symbol prog local")
		}
		names = append(names, string(name))
	}
	sc := fc.beginScope(names)
	for _, n := range names {
		fc.bind(n)
	}
	for _, form := range args[1:] {
		if label, ok := form.(sexpr.Symbol); ok {
			fc.labels[string(label)] = fc.here()
			continue
		}
		if err := fc.expr(form); err != nil {
			return err
		}
		fc.emit(Instr{Op: OpPop}) // prog body values are discarded
	}
	// Falling off the end of a prog yields nil. (return ...) inside the
	// body compiles to FRETN directly.
	fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
	fc.endScope(sc)
	return nil
}

// andOr compiles short-circuit and/or with branch chains. and yields nil
// on the first nil argument, else the last argument's value; or yields
// the first non-nil argument's value, else nil.
func (fc *fnCompiler) andOr(args []sexpr.Value, isAnd bool) error {
	if len(args) == 0 {
		if isAnd {
			fc.emit(Instr{Op: OpPushSym, Sym: "t"})
		} else {
			fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
		}
		return nil
	}
	var shortJumps []int
	for i, a := range args {
		if err := fc.expr(a); err != nil {
			return err
		}
		if i == len(args)-1 {
			break
		}
		if isAnd {
			// BRNIL consumes the value; a nil argument short-circuits.
			shortJumps = append(shortJumps, fc.emit(Instr{Op: OpBrNil}))
		} else {
			// Keep the value: DUP, invert, branch out when non-nil.
			fc.emit(Instr{Op: OpDup})
			fc.emit(Instr{Op: OpNot})
			shortJumps = append(shortJumps, fc.emit(Instr{Op: OpBrNil}))
			fc.emit(Instr{Op: OpPop}) // discard the nil and try the next
		}
	}
	done := fc.emit(Instr{Op: OpJump})
	short := fc.here()
	if isAnd {
		fc.emit(Instr{Op: OpPushSym, Sym: "nil"})
	}
	// (for or, the short-circuit path left the winning value on the stack)
	after := fc.here()
	fc.setTarget(done, after)
	for _, j := range shortJumps {
		fc.setTarget(j, short)
	}
	return nil
}

func listElems(v sexpr.Value) []sexpr.Value {
	var out []sexpr.Value
	for {
		c, ok := v.(*sexpr.Cell)
		if !ok {
			return out
		}
		out = append(out, c.Car)
		v = c.Cdr
	}
}
