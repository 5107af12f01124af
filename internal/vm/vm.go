package vm

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sexpr"
)

// TraceSink receives the trace events of §3.3.1 while the VM runs:
// every list primitive with its arguments in s-expression form, and
// every user function entry/exit. It is structurally identical to
// internal/lisp's TraceSink, so a lisp.Collector plugs straight in, and
// the differential test can demand byte-identical traces from both
// engines.
type TraceSink interface {
	Prim(op string, args []sexpr.Value, result sexpr.Value, depth int)
	Enter(name string, nargs, depth int)
	Exit(name string, depth int)
}

// TextSink is an optional TraceSink extension for sinks that accept
// pre-rendered operand texts (lisp.Collector implements it). When the
// installed sink provides it, the VM renders operands straight from
// machine structure into a reusable buffer instead of materialising an
// s-expression tree per event — on traced runs that is the difference
// between the VM out-tracing the interpreter and trailing it.
type TextSink interface {
	PrimText(op string, args []string, result string, depth int)
}

// VM emulates the SMALL stack machine: a control/value stack in the EP,
// with every list operation delegated to a core.Machine (LP + LPT +
// heap). Stack and frame slots count as EP references and are retained
// and released accordingly, so the LPT reference counts behave exactly as
// in §4.3.1's binding discipline.
//
// Operands are unboxed vm.Values: integers, booleans and nil never
// touch the atom table, and arithmetic and predicates run on
// immediates. An integer that escapes into the LP (cons, rplac) becomes
// an immediate heap word; only one outside the 32-bit range is interned.
type VM struct {
	prog   *Program
	ln     *linker // a Session's linker, which OpLink binds through
	m      *core.Machine
	stack  []Value
	frames []vframe
	input  []sexpr.Value
	out    io.Writer // smallvet:keep (config, set at construction)
	sink   TraceSink // smallvet:keep (config, set at construction)
	tsink  TextSink  // smallvet:keep (derived from sink by SetTrace)
	tbuf   []byte    // scratch for rendering trace operand texts
	steps  int64
	limit  int64 // smallvet:keep (budget, managed by SetStepLimit)
	depth  int   // user-function call depth (trace events carry it)

	// props is the property-list store (putprop/get), keyed by atom-table
	// indices so lookups never build strings or box interface keys.
	props map[int32]map[int32]Value

	// Intern caches; all are per-machine and cleared by Reset.
	tW       heap.Word   // interned symbol t
	symCache []heap.Word // per-pc PUSHSYM interns
	lastInt  int64       // last int interned (outside the 32-bit range) ...
	lastIntW heap.Word   // ... and its word

	ctxDone <-chan struct{}
	ctxErr  func() error
}

// vframe is one activation record. Pending arguments stay in place on
// the operand stack (pbase..pbase+npending); BINDN transfers their
// references into vars, so a call allocates nothing once the frame and
// slot arrays have grown to steady state.
type vframe struct {
	ret      int
	fname    string // callee name, for the Exit trace event
	pbase    int    // stack index where the pending arguments begin
	npending int
	argIdx   int
	vars     []Value
	names    []string
}

// ErrHalt signals normal termination (internal).
var errHalted = errors.New("vm: halted")

// ErrStepLimit is returned when execution exceeds the step budget.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// callError is a call the interpreter rejects too: of an undefined
// function, or with the wrong number of arguments. Unlike a machine
// fault it reaches the caller without a pc.
type callError struct{ msg string }

func (e *callError) Error() string { return "vm: " + e.msg }

// New builds a VM over a fresh SMALL machine.
func New(prog *Program, opts ...Option) *VM {
	vm := &VM{out: io.Discard, limit: 10_000_000}
	vm.setProg(prog)
	for _, o := range opts {
		o(vm)
	}
	if vm.m == nil {
		vm.m = core.NewMachine(core.Config{LPTSize: 2048})
	}
	return vm
}

// Option configures a VM.
type Option func(*VM)

// WithMachine supplies the SMALL machine to execute on.
func WithMachine(m *core.Machine) Option { return func(v *VM) { v.m = m } }

// WithOutput directs WRLIST output.
func WithOutput(w io.Writer) Option { return func(v *VM) { v.out = w } }

// WithInput queues values for RDLIST.
func WithInput(vals []sexpr.Value) Option { return func(v *VM) { v.input = vals } }

// WithStepLimit bounds execution.
func WithStepLimit(n int64) Option { return func(v *VM) { v.limit = n } }

// WithTrace installs a trace sink (e.g. a lisp.Collector).
func WithTrace(t TraceSink) Option { return func(v *VM) { v.SetTrace(t) } }

// Machine exposes the underlying SMALL machine (for stats).
func (v *VM) Machine() *core.Machine { return v.m }

// SetStepLimit adjusts the execution budget of a live VM (n <= 0 means
// unlimited), mirroring the interpreters' session API.
func (v *VM) SetStepLimit(n int64) {
	if n <= 0 {
		n = 1<<63 - 1
	}
	v.limit = n
}

// ResetSteps zeroes the step counter, starting a fresh budget window.
func (v *VM) ResetSteps() { v.steps = 0 }

// Steps returns the steps executed since the last ResetSteps.
func (v *VM) Steps() int64 { return v.steps }

// SetContext installs a cancellation context, polled every 1024 steps:
// when ctx is done, execution unwinds with ctx.Err(). Pass nil to
// detach.
func (v *VM) SetContext(ctx context.Context) {
	if ctx == nil {
		v.ctxDone, v.ctxErr = nil, nil
		return
	}
	v.ctxDone, v.ctxErr = ctx.Done(), ctx.Err
}

// SetTrace re-arms the trace sink (pooled VMs collect into a fresh
// collector per run).
func (v *VM) SetTrace(t TraceSink) {
	v.sink = t
	v.tsink, _ = t.(TextSink)
}

// SetOutput redirects WRLIST output.
func (v *VM) SetOutput(w io.Writer) { v.out = w }

// SetInput queues values for RDLIST.
func (v *VM) SetInput(vals []sexpr.Value) { v.input = vals }

// setProg installs a program and sizes the per-pc symbol cache.
func (v *VM) setProg(prog *Program) {
	v.prog = prog
	v.symCache = v.symCache[:0]
	v.codeChanged(0)
}

// codeChanged resizes the per-pc symbol cache to the program's code,
// which changed from pc from on; the interns cached below from stay
// valid. Storage left oversized by a large batch is released.
func (v *VM) codeChanged(from int) {
	n := len(v.prog.Code)
	keep := min(from, len(v.symCache), n)
	v.symCache = v.symCache[:keep]
	if n <= cap(v.symCache) {
		v.symCache = trim(v.symCache[:n])
		clear(v.symCache[keep:])
	} else {
		v.symCache = append(v.symCache, make([]heap.Word, n-keep)...)
	}
}

// Reset reinitialises the VM for pooled reuse on a (typically reset)
// machine: execution state, globals, property lists and every intern
// cache are dropped. Output, trace sink and step budget are
// configuration and survive.
func (v *VM) Reset(prog *Program, m *core.Machine) {
	v.prog = prog
	v.symCache = v.symCache[:0]
	v.codeChanged(0)
	v.ln = nil
	v.m = m
	v.stack = v.stack[:0]
	v.frames = v.frames[:0]
	v.input = nil
	v.tbuf = v.tbuf[:0]
	v.steps = 0
	v.depth = 0
	clear(v.props)
	v.tW = heap.Word{}
	v.lastInt = 0
	v.lastIntW = heap.Word{}
	v.ctxDone = nil
	v.ctxErr = nil
}

func (v *VM) push(x Value) { v.stack = append(v.stack, x) }

func (v *VM) pop() (Value, error) {
	if len(v.stack) == 0 {
		return nilV, errors.New("vm: stack underflow")
	}
	x := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return x, nil
}

// pushFrame activates a new frame, reusing slot arrays left in place by
// earlier calls at the same depth.
func (v *VM) pushFrame(ret, pbase, npending int, fname string) {
	if len(v.frames) < cap(v.frames) {
		v.frames = v.frames[:len(v.frames)+1]
	} else {
		v.frames = append(v.frames, vframe{})
	}
	f := &v.frames[len(v.frames)-1]
	f.ret, f.fname, f.pbase, f.npending, f.argIdx = ret, fname, pbase, npending, 0
	f.vars = f.vars[:0]
	f.names = f.names[:0]
}

// unwindToGlobal releases every reference held above the global frame:
// call frames (their bindings and unconsumed pending arguments) and
// stack temporaries. Global bindings survive, so a session's state
// persists across both successful and failed evals.
func (v *VM) unwindToGlobal() {
	top := len(v.stack)
	for fi := len(v.frames) - 1; fi >= 1; fi-- {
		f := &v.frames[fi]
		for _, val := range f.vars {
			v.release(val)
		}
		// Consumed pending args transferred their references to vars;
		// release only the unconsumed ones, then everything above them.
		for i := f.pbase + f.argIdx; i < f.pbase+f.npending; i++ {
			v.release(v.stack[i])
		}
		for i := f.pbase + f.npending; i < top; i++ {
			v.release(v.stack[i])
		}
		top = f.pbase
	}
	for i := 0; i < top; i++ {
		v.release(v.stack[i])
	}
	v.stack = v.stack[:0]
	if len(v.frames) > 1 {
		v.frames = v.frames[:1]
	}
	v.depth = 0
}

// Run executes the program and returns the final value as an
// s-expression. Global bindings made by top-level setq survive in the
// VM (frame 0), so repeated Runs behave like successive session evals.
func (v *VM) Run() (sexpr.Value, error) {
	if len(v.frames) == 0 {
		v.pushFrame(-1, 0, 0, "") // globals
	}
	// Top-level code binds its let and prog variables in a frame of its
	// own, dropped when the run ends; frame 0 holds only globals.
	v.pushFrame(-1, len(v.stack), 0, "")
	v.depth = 0
	pc := v.prog.Entry
	for {
		v.steps++
		if v.steps > v.limit {
			v.unwindToGlobal()
			return nil, ErrStepLimit
		}
		if v.ctxDone != nil && v.steps&1023 == 0 {
			select {
			case <-v.ctxDone:
				v.unwindToGlobal()
				return nil, fmt.Errorf("vm: execution cancelled: %w", v.ctxErr())
			default:
			}
		}
		if pc < 0 || pc >= len(v.prog.Code) {
			v.unwindToGlobal()
			return nil, fmt.Errorf("vm: pc %d out of range", pc)
		}
		next, err := v.step(pc)
		if err == errHalted {
			top, perr := v.pop()
			if perr != nil {
				v.unwindToGlobal()
				return nil, perr
			}
			sv, verr := v.sexprOf(top)
			v.release(top)
			v.unwindToGlobal()
			return sv, verr
		}
		if err != nil {
			if _, ok := err.(*callError); !ok {
				err = fmt.Errorf("vm: pc %d (%s): %w", pc, v.prog.Code[pc], err)
			}
			v.unwindToGlobal()
			return nil, err
		}
		pc = next
	}
}

func (v *VM) frame() *vframe { return &v.frames[len(v.frames)-1] }

// access1 performs one traced car/cdr step on the machine. The caller
// owns x and the returned value. As in the interpreter, the car and cdr
// of nil or an atom are nil; the machine is not asked.
func (v *VM) access1(x Value, wantCar bool) (Value, error) {
	res := nilV
	if isListKind(x) {
		var out core.Value
		var err error
		if wantCar {
			out, err = v.m.Car(v.toCore(x))
		} else {
			out, err = v.m.Cdr(v.toCore(x))
		}
		if err != nil {
			return nilV, err
		}
		res = v.fromCore(out)
	}
	if v.sink != nil {
		op := "cdr"
		if wantCar {
			op = "car"
		}
		if v.tsink != nil {
			v.tsink.PrimText(op, []string{v.renderText(x)}, v.renderText(res), v.depth)
		} else {
			v.sink.Prim(op, []sexpr.Value{v.sx(x)}, v.sx(res), v.depth)
		}
	}
	return res, nil
}

// cons1 performs one cons on the machine, traced unless quiet.
func (v *VM) cons1(car, cdr Value, quiet bool) (Value, error) {
	out, err := v.m.Cons(v.toCore(car), v.toCore(cdr))
	if err != nil {
		return nilV, err
	}
	res := v.fromCore(out)
	if !quiet && v.sink != nil {
		if v.tsink != nil {
			v.tsink.PrimText("cons", []string{v.renderText(car), v.renderText(cdr)}, v.renderText(res), v.depth)
		} else {
			v.sink.Prim("cons", []sexpr.Value{v.sx(car), v.sx(cdr)}, v.sx(res), v.depth)
		}
	}
	return res, nil
}

// step executes one instruction, returning the next pc.
func (v *VM) step(pc int) (int, error) {
	ins := v.prog.Code[pc]
	f := v.frame()
	switch ins.Op {
	case OpBindN:
		var val Value
		if f.argIdx < f.npending {
			val = v.stack[f.pbase+f.argIdx]
			f.argIdx++
		}
		off := int(ins.Arg) - 1
		for len(f.vars) < off { // slots of a branch that did not run
			f.vars = append(f.vars, nilV)
			f.names = append(f.names, "")
		}
		if off < len(f.vars) { // a let or prog in a loop binds again
			v.release(f.vars[off])
			f.vars[off], f.names[off] = val, ins.Sym
		} else {
			f.vars = append(f.vars, val)
			f.names = append(f.names, ins.Sym)
		}

	case OpUnbind:
		for i := int(ins.Arg) - 1; i < len(f.names); i++ {
			f.names[i] = ""
		}

	case OpPushStk:
		off := int(ins.Arg) - 1
		if off < 0 || off >= len(f.vars) {
			return 0, fmt.Errorf("bad frame offset %d", ins.Arg)
		}
		val := f.vars[off]
		v.retain(val)
		v.push(val)

	case OpPushName:
		val, ok := v.lookupName(ins.Sym)
		if !ok {
			return 0, fmt.Errorf("unbound variable %s", ins.Sym)
		}
		v.retain(val)
		v.push(val)

	case OpPushSym:
		if ins.Sym != "" {
			switch ins.Sym {
			case "t":
				v.push(trueV)
			case "nil":
				v.push(nilV)
			default:
				v.push(Value{Kind: KAtom, W: v.symWord(pc, ins.Sym)})
			}
		} else {
			v.push(intV(ins.Arg))
		}

	case OpSetq:
		off := int(ins.Arg) - 1
		if off < 0 || off >= len(f.vars) {
			return 0, fmt.Errorf("bad frame offset %d", ins.Arg)
		}
		top := v.stack[len(v.stack)-1]
		v.retain(top)
		v.release(f.vars[off])
		f.vars[off] = top

	case OpSetqPop:
		off := int(ins.Arg) - 1
		if off < 0 || off >= len(f.vars) {
			return 0, fmt.Errorf("bad frame offset %d", ins.Arg)
		}
		x, err := v.pop()
		if err != nil {
			return 0, err
		}
		// The operand's stack reference transfers to the frame slot.
		v.release(f.vars[off])
		f.vars[off] = x

	case OpSetName:
		top := v.stack[len(v.stack)-1]
		if !v.setName(ins.Sym, top) {
			// setq of unbound name: create a top-level binding.
			g := &v.frames[0]
			v.retain(top)
			g.vars = append(g.vars, top)
			g.names = append(g.names, ins.Sym)
		}

	case OpPop:
		x, err := v.pop()
		if err != nil {
			return 0, err
		}
		v.release(x)

	case OpDup:
		top := v.stack[len(v.stack)-1]
		v.retain(top)
		v.push(top)

	case OpFCall:
		n := int(ins.Arg)
		if len(v.stack) < n {
			return 0, errors.New("missing arguments")
		}
		v.depth++
		if v.sink != nil {
			v.sink.Enter(ins.Sym, n, v.depth)
		}
		v.pushFrame(pc+1, len(v.stack)-n, n, ins.Sym)
		return int(ins.Target), nil

	case OpFRetn:
		if f.ret < 0 {
			return 0, errors.New("return from top level")
		}
		result, err := v.pop()
		if err != nil {
			return 0, err
		}
		for _, val := range f.vars {
			v.release(val)
		}
		for i := f.pbase + f.argIdx; i < f.pbase+f.npending; i++ {
			v.release(v.stack[i])
		}
		// Mid-expression (return ...) can leave extra temporaries above
		// the arguments; release them too.
		for i := f.pbase + f.npending; i < len(v.stack); i++ {
			v.release(v.stack[i])
		}
		if v.sink != nil {
			v.sink.Exit(f.fname, v.depth)
		}
		v.depth--
		ret := f.ret
		v.stack = v.stack[:f.pbase]
		v.push(result)
		v.frames = v.frames[:len(v.frames)-1]
		return ret, nil

	case OpJump:
		return int(ins.Target), nil

	case OpBrNil:
		x, err := v.pop()
		if err != nil {
			return 0, err
		}
		isNil := !truthy(x)
		v.release(x)
		if isNil {
			return int(ins.Target), nil
		}

	case OpNEqualP:
		b, err := v.pop()
		if err != nil {
			return 0, err
		}
		a, err := v.pop()
		if err != nil {
			return 0, err
		}
		eq, err := v.equality(ins.Arg, a, b)
		v.release(a)
		v.release(b)
		if err != nil {
			return 0, err
		}
		if !eq {
			return int(ins.Target), nil
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpRem:
		b, err := v.pop()
		if err != nil {
			return 0, err
		}
		a, err := v.pop()
		if err != nil {
			return 0, err
		}
		x, err := v.intArg(a)
		if err != nil {
			v.release(a)
			v.release(b)
			return 0, err
		}
		y, err := v.intArg(b)
		if err != nil {
			v.release(a)
			v.release(b)
			return 0, err
		}
		var r int64
		switch ins.Op {
		case OpAdd:
			r = x + y
		case OpSub:
			r = x - y
		case OpMul:
			r = x * y
		case OpDiv:
			if y == 0 {
				return 0, errors.New("division by zero")
			}
			r = x / y
		case OpRem:
			if y == 0 {
				return 0, errors.New("division by zero")
			}
			r = x % y
		}
		v.push(intV(r))

	case OpAddImm, OpSubImm:
		a, err := v.pop()
		if err != nil {
			return 0, err
		}
		x, err := v.intArg(a)
		if err != nil {
			v.release(a)
			return 0, err
		}
		if ins.Op == OpAddImm {
			v.push(intV(x + ins.Arg))
		} else {
			v.push(intV(x - ins.Arg))
		}

	case OpAdd1, OpSub1:
		a, err := v.pop()
		if err != nil {
			return 0, err
		}
		x, err := v.intArg(a)
		if err != nil {
			v.release(a)
			return 0, err
		}
		if ins.Op == OpAdd1 {
			v.push(intV(x + 1))
		} else {
			v.push(intV(x - 1))
		}

	case OpZeroP:
		a, err := v.pop()
		if err != nil {
			return 0, err
		}
		x, err := v.intArg(a)
		if err != nil {
			v.release(a)
			return 0, err
		}
		v.push(boolV(x == 0))

	case OpCar, OpCdr:
		x, err := v.pop()
		if err != nil {
			return 0, err
		}
		res, err := v.access1(x, ins.Op == OpCar)
		if err != nil {
			v.release(x)
			return 0, err
		}
		v.release(x)
		v.push(res)

	case OpCarStk, OpCdrStk:
		off := int(ins.Arg) - 1
		if off < 0 || off >= len(f.vars) {
			return 0, fmt.Errorf("bad frame offset %d", ins.Arg)
		}
		// The frame keeps its reference on the variable; no stack
		// round-trip for the operand.
		res, err := v.access1(f.vars[off], ins.Op == OpCarStk)
		if err != nil {
			return 0, err
		}
		v.push(res)

	case OpCadr, OpCaddr, OpCxr:
		var steps int
		var mask uint8
		switch ins.Op {
		case OpCadr:
			steps, mask = 2, 0b10
		case OpCaddr:
			steps, mask = 3, 0b100
		default:
			steps, mask = cxrSteps(ins.Arg)
		}
		cur, err := v.pop()
		if err != nil {
			return 0, err
		}
		for j := 0; j < steps; j++ {
			res, err := v.access1(cur, mask>>j&1 == 1)
			if err != nil {
				v.release(cur)
				return 0, err
			}
			v.release(cur)
			cur = res
		}
		v.push(cur)

	case OpCons, OpConsQ:
		cdr, err := v.pop()
		if err != nil {
			return 0, err
		}
		car, err := v.pop()
		if err != nil {
			return 0, err
		}
		res, err := v.cons1(car, cdr, ins.Op == OpConsQ)
		if err != nil {
			v.release(car)
			v.release(cdr)
			return 0, err
		}
		v.release(car)
		v.release(cdr)
		v.push(res)

	case OpList:
		n := int(ins.Arg)
		if len(v.stack) < n {
			return 0, errors.New("missing arguments")
		}
		base := len(v.stack) - n
		out := nilV
		var err error
		for i := len(v.stack) - 1; i >= base; i-- {
			elem := v.stack[i]
			var res Value
			res, err = v.cons1(elem, out, false)
			if err != nil {
				break
			}
			v.release(elem)
			v.release(out)
			v.stack[i] = nilV // consumed
			out = res
		}
		v.stack = v.stack[:base]
		if err != nil {
			v.release(out)
			return 0, err
		}
		v.push(out)

	case OpLength:
		x, err := v.pop()
		if err != nil {
			return 0, err
		}
		n := int64(0)
		cur := x
		for isListKind(cur) {
			next, err := v.access1(cur, false)
			if err != nil {
				v.release(cur)
				return 0, err
			}
			v.release(cur)
			cur = next
			n++
		}
		v.release(cur)
		v.push(intV(n))

	case OpRplaca, OpRplacd:
		val, err := v.pop()
		if err != nil {
			return 0, err
		}
		target, err := v.pop()
		if err != nil {
			return 0, err
		}
		if ins.Op == OpRplaca {
			err = v.m.Rplaca(v.toCore(target), v.toCore(val))
		} else {
			err = v.m.Rplacd(v.toCore(target), v.toCore(val))
		}
		if err != nil {
			v.release(val)
			v.release(target)
			return 0, err
		}
		if v.sink != nil {
			// Arguments render after the mutation, as the interpreter's
			// rplaca/rplacd trace does.
			op := "rplacd"
			if ins.Op == OpRplaca {
				op = "rplaca"
			}
			if v.tsink != nil {
				v.tsink.PrimText(op, []string{v.renderText(target), v.renderText(val)}, v.renderText(target), v.depth)
			} else {
				v.sink.Prim(op, []sexpr.Value{v.sx(target), v.sx(val)}, v.sx(target), v.depth)
			}
		}
		v.release(val)
		// rplac returns the modified object: keep target on the stack.
		v.push(target)

	case OpAtomP, OpNullP, OpNot:
		x, err := v.pop()
		if err != nil {
			return 0, err
		}
		var res bool
		switch ins.Op {
		case OpAtomP:
			res = !isListKind(x)
		case OpNullP, OpNot:
			res = x.Kind == KNil
		}
		v.release(x)
		v.push(boolV(res))

	case OpEqualP:
		b, err := v.pop()
		if err != nil {
			return 0, err
		}
		a, err := v.pop()
		if err != nil {
			return 0, err
		}
		eq, err := v.equality(ins.Arg, a, b)
		v.release(a)
		v.release(b)
		if err != nil {
			return 0, err
		}
		v.push(boolV(eq))

	case OpGreaterP, OpLessP, OpGeq, OpLeq:
		b, err := v.pop()
		if err != nil {
			return 0, err
		}
		a, err := v.pop()
		if err != nil {
			return 0, err
		}
		x, err := v.intArg(a)
		if err != nil {
			v.release(a)
			v.release(b)
			return 0, err
		}
		y, err := v.intArg(b)
		if err != nil {
			v.release(a)
			v.release(b)
			return 0, err
		}
		// The interpreter compares numbers as float64s.
		fx, fy := float64(x), float64(y)
		var res bool
		switch ins.Op {
		case OpGreaterP:
			res = fx > fy
		case OpLessP:
			res = fx < fy
		case OpGeq:
			res = fx >= fy
		case OpLeq:
			res = fx <= fy
		}
		v.push(boolV(res))

	case OpMax, OpMin:
		n := int(ins.Arg)
		if n < 1 || len(v.stack) < n {
			return 0, errors.New("missing arguments")
		}
		base := len(v.stack) - n
		best, err := v.intArg(v.stack[base])
		if err == nil {
			for i := base + 1; i < len(v.stack); i++ {
				var x int64
				x, err = v.intArg(v.stack[i])
				if err != nil {
					break
				}
				if (ins.Op == OpMax && x > best) || (ins.Op == OpMin && x < best) {
					best = x
				}
			}
		}
		for i := base; i < len(v.stack); i++ {
			v.release(v.stack[i])
		}
		v.stack = v.stack[:base]
		if err != nil {
			return 0, err
		}
		v.push(intV(best))

	case OpGet:
		p, err := v.pop()
		if err != nil {
			return 0, err
		}
		s, err := v.pop()
		if err != nil {
			return 0, err
		}
		sk, err := v.symKey(s)
		if err == nil {
			var pk int32
			pk, err = v.symKey(p)
			if err == nil {
				val := v.props[sk][pk]
				v.retain(val)
				v.push(val)
			}
		}
		v.release(s)
		v.release(p)
		if err != nil {
			return 0, err
		}

	case OpPutprop:
		p, err := v.pop()
		if err != nil {
			return 0, err
		}
		val, err := v.pop()
		if err != nil {
			return 0, err
		}
		s, err := v.pop()
		if err != nil {
			return 0, err
		}
		sk, serr := v.symKey(s)
		pk, perr := v.symKey(p)
		if serr != nil || perr != nil {
			v.release(val)
			v.release(s)
			v.release(p)
			if serr != nil {
				return 0, serr
			}
			return 0, perr
		}
		if v.props == nil {
			v.props = make(map[int32]map[int32]Value)
		}
		plist := v.props[sk]
		if plist == nil {
			plist = make(map[int32]Value)
			v.props[sk] = plist
		}
		old, existed := plist[pk]
		v.retain(val) // the property list's own reference
		plist[pk] = val
		if existed {
			v.release(old)
		}
		v.release(s)
		v.release(p)
		// putprop returns the stored value; the stack's original
		// reference carries it.
		v.push(val)

	case OpRdList:
		off := int(ins.Arg) - 1
		if off < 0 || off >= len(f.vars) {
			return 0, fmt.Errorf("bad frame offset %d", ins.Arg)
		}
		if len(v.input) == 0 {
			// As the interpreter's read: nil, and nothing is bound.
			v.push(nilV)
			break
		}
		datum := v.input[0]
		v.input = v.input[1:]
		val, err := v.m.ReadList(datum, v.toCore(f.vars[off]))
		if err != nil {
			return 0, err
		}
		f.vars[off] = v.fromCore(val)
		if v.sink != nil {
			v.sink.Prim("read", nil, datum, v.depth)
		}
		v.retain(f.vars[off])
		v.push(f.vars[off])

	case OpWrList:
		// Prints TOS, which stays as the value: print returns its argument.
		if len(v.stack) == 0 {
			return 0, errors.New("vm: stack underflow")
		}
		sv, err := v.sexprOf(v.stack[len(v.stack)-1])
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(v.out, sexpr.String(sv))

	case OpHalt:
		return 0, errHalted

	case OpFGuard:
		if _, ok := v.prog.Funcs[ins.Sym]; !ok {
			return 0, &callError{"undefined function " + ins.Sym}
		}

	case OpLink:
		group := v.ln.groups[ins.Arg]
		for _, fn := range group {
			v.ln.bind(fn)
		}
		v.push(Value{Kind: KAtom, W: v.symWord(pc, ins.Sym)})

	case OpUndef:
		return 0, &callError{"undefined function " + f.fname}

	case OpArity:
		return 0, &callError{fmt.Sprintf("%s called with %d args, wants %d",
			f.fname, f.npending, v.prog.Funcs[f.fname].NArgs)}

	default:
		return 0, fmt.Errorf("unknown opcode %d", ins.Op)
	}
	return pc + 1, nil
}

// lookupName searches frames newest-first for a dynamic binding.
func (v *VM) lookupName(name string) (Value, bool) {
	for fi := len(v.frames) - 1; fi >= 0; fi-- {
		f := &v.frames[fi]
		for i := len(f.names) - 1; i >= 0; i-- {
			if f.names[i] == name {
				return f.vars[i], true
			}
		}
	}
	return nilV, false
}

func (v *VM) setName(name string, val Value) bool {
	for fi := len(v.frames) - 1; fi >= 0; fi-- {
		f := &v.frames[fi]
		for i := len(f.names) - 1; i >= 0; i-- {
			if f.names[i] == name {
				v.retain(val)
				v.release(f.vars[i])
				f.vars[i] = val
				return true
			}
		}
	}
	return false
}
