// Package smalllisp is a Lisp interpreter whose data plane is a SMALL
// machine: every list value is a core.Value, every car/cdr/cons/rplac
// goes through the LP request interface, and every binding made by the
// evaluation loop retains/releases LPT references exactly as the EP of
// §4.3.1 would. It realises the thesis's "development of a more complete
// SMALL Lisp implementation" future-work item, and lets the direct
// execution statistics of real programs be compared against the Chapter 5
// trace-driven simulator's.
package smalllisp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sexpr"
)

// Interp evaluates Lisp programs on a SMALL machine.
type Interp struct {
	m *core.Machine
	// stack is the EP's control-cum-binding stack: deep binding, searched
	// newest-first (§4.3.1).
	stack   []binding
	frames  []int
	fns     map[sexpr.Symbol]*function
	props   map[sexpr.Symbol]map[sexpr.Symbol]core.Value
	out     io.Writer
	input   []sexpr.Value
	gensym  int64
	steps   int64
	limit   int64
	depth   int
	ctxDone <-chan struct{}
	ctxErr  func() error
}

type binding struct {
	name sexpr.Symbol
	val  core.Value
}

type function struct {
	name   sexpr.Symbol
	params []sexpr.Symbol
	body   []sexpr.Value
}

// Option configures an Interp.
type Option func(*Interp)

// WithMachine supplies the SMALL machine (default: 4096-entry LPT).
func WithMachine(m *core.Machine) Option { return func(in *Interp) { in.m = m } }

// WithOutput directs (print ...) output.
func WithOutput(w io.Writer) Option { return func(in *Interp) { in.out = w } }

// WithInput queues data for (read).
func WithInput(vals []sexpr.Value) Option { return func(in *Interp) { in.input = vals } }

// WithStepLimit bounds evaluation steps.
func WithStepLimit(n int64) Option { return func(in *Interp) { in.limit = n } }

// New builds an interpreter.
func New(opts ...Option) *Interp {
	in := &Interp{
		fns:   make(map[sexpr.Symbol]*function),
		props: make(map[sexpr.Symbol]map[sexpr.Symbol]core.Value),
		out:   io.Discard,
		limit: 100_000_000,
	}
	for _, o := range opts {
		o(in)
	}
	if in.m == nil {
		in.m = core.NewMachine(core.Config{LPTSize: 4096})
	}
	return in
}

// Machine exposes the underlying SMALL machine.
func (in *Interp) Machine() *core.Machine { return in.m }

// SetStepLimit adjusts the evaluation budget of a live interpreter
// (n <= 0 means unlimited).
func (in *Interp) SetStepLimit(n int64) {
	if n <= 0 {
		n = 1<<63 - 1
	}
	in.limit = n
}

// ResetSteps zeroes the step counter, starting a fresh budget window.
func (in *Interp) ResetSteps() { in.steps = 0 }

// Steps returns the evaluation steps taken since the last ResetSteps.
func (in *Interp) Steps() int64 { return in.steps }

// SetContext installs a cancellation context polled every 1024 steps in
// the eval loop; when ctx is done, evaluation unwinds with ctx.Err().
// Pass nil to detach.
func (in *Interp) SetContext(ctx context.Context) {
	if ctx == nil {
		in.ctxDone, in.ctxErr = nil, nil
		return
	}
	in.ctxDone, in.ctxErr = ctx.Done(), ctx.Err
}

// ErrStepLimit is returned when the evaluation budget is exhausted.
var ErrStepLimit = errors.New("smalllisp: step limit exceeded")

type evalError struct {
	msg  string
	form sexpr.Value
}

func (e *evalError) Error() string {
	if e.form == nil {
		return "smalllisp: " + e.msg
	}
	return fmt.Sprintf("smalllisp: %s: %s", e.msg, sexpr.String(e.form))
}

func errf(form sexpr.Value, format string, args ...any) error {
	return &evalError{msg: fmt.Sprintf(format, args...), form: form}
}

type returnSignal struct{ val core.Value }

func (*returnSignal) Error() string { return "smalllisp: return outside prog" }

type goSignal struct{ label sexpr.Symbol }

func (g *goSignal) Error() string { return "smalllisp: go outside prog: " + string(g.label) }

// Run parses and evaluates src, returning the final value decoded to an
// s-expression. All EP holds are released before returning, so the LPT
// retains only what global bindings still reference.
func (in *Interp) Run(src string) (sexpr.Value, error) {
	forms, err := sexpr.ParseAll(src)
	if err != nil {
		return nil, err
	}
	last := core.NilValue
	for _, f := range forms {
		v, err := in.eval(f)
		if err != nil {
			return nil, err
		}
		in.m.Release(last)
		last = v
	}
	out, err := in.m.ValueOf(last)
	in.m.Release(last)
	return out, err
}

// --- value helpers ---

func (in *Interp) atom(v sexpr.Value) core.Value {
	if v == nil {
		return core.NilValue
	}
	return core.Value{Kind: core.VAtom, Atom: in.m.Heap().Atoms().Intern(v)}
}

func (in *Interp) atomValue(v core.Value) (sexpr.Value, error) {
	switch v.Kind {
	case core.VNil:
		return nil, nil
	case core.VAtom:
		return in.m.Heap().Atoms().Value(v.Atom)
	}
	return nil, errf(nil, "list where atom expected")
}

func (in *Interp) numOf(v core.Value) (int64, error) {
	sv, err := in.atomValue(v)
	if err != nil {
		return 0, err
	}
	if i, ok := sv.(sexpr.Int); ok {
		return int64(i), nil
	}
	return 0, errf(sv, "not a number")
}

func truthy(v core.Value) bool { return v.Kind != core.VNil }

var trueSym = sexpr.Symbol("t")

func (in *Interp) boolVal(b bool) core.Value {
	if b {
		return in.atom(trueSym)
	}
	return core.NilValue
}

// isList reports whether v is a list value.
func isList(v core.Value) bool {
	return v.Kind == core.VList || v.Kind == core.VHeap
}

// --- environment (deep binding on the EP stack) ---

func (in *Interp) pushFrame() { in.frames = append(in.frames, len(in.stack)) }

func (in *Interp) popFrame() {
	base := in.frames[len(in.frames)-1]
	in.frames = in.frames[:len(in.frames)-1]
	for i := len(in.stack) - 1; i >= base; i-- {
		in.m.Release(in.stack[i].val)
	}
	in.stack = in.stack[:base]
}

// bind adds a binding; ownership of val transfers to the stack.
func (in *Interp) bind(name sexpr.Symbol, val core.Value) {
	in.stack = append(in.stack, binding{name, val})
}

func (in *Interp) lookup(name sexpr.Symbol) (core.Value, bool) {
	for i := len(in.stack) - 1; i >= 0; i-- {
		if in.stack[i].name == name {
			return in.stack[i].val, true
		}
	}
	return core.NilValue, false
}

// set mutates the newest binding, or creates a global one.
func (in *Interp) set(name sexpr.Symbol, val core.Value) {
	for i := len(in.stack) - 1; i >= 0; i-- {
		if in.stack[i].name == name {
			in.m.Release(in.stack[i].val)
			in.stack[i].val = val
			return
		}
	}
	// Globals live below every frame: insert at the bottom so frame pops
	// never release them.
	in.stack = append(in.stack, binding{})
	copy(in.stack[1:], in.stack)
	in.stack[0] = binding{name, val}
	for i := range in.frames {
		in.frames[i]++
	}
}

// --- evaluation ---

func (in *Interp) eval(form sexpr.Value) (core.Value, error) {
	in.steps++
	if in.steps > in.limit {
		return core.NilValue, ErrStepLimit
	}
	if in.ctxDone != nil && in.steps&1023 == 0 {
		select {
		case <-in.ctxDone:
			return core.NilValue, fmt.Errorf("smalllisp: evaluation cancelled: %w", in.ctxErr())
		default:
		}
	}
	switch f := form.(type) {
	case nil:
		return core.NilValue, nil
	case sexpr.Int, sexpr.Float, sexpr.Str:
		return in.atom(f), nil
	case sexpr.Symbol:
		if f == "t" {
			return in.atom(trueSym), nil
		}
		if v, ok := in.lookup(f); ok {
			in.m.Retain(v) // the caller receives its own hold
			return v, nil
		}
		return core.NilValue, errf(form, "unbound variable %s", f)
	case *sexpr.Cell:
		return in.evalCall(f)
	}
	return core.NilValue, errf(form, "cannot evaluate")
}

func (in *Interp) evalCall(form *sexpr.Cell) (core.Value, error) {
	head, ok := form.Car.(sexpr.Symbol)
	if !ok {
		if lam, ok := form.Car.(*sexpr.Cell); ok && lam.Car == sexpr.Symbol("lambda") {
			fn, err := parseLambda("<lambda>", lam)
			if err != nil {
				return core.NilValue, err
			}
			args, err := in.evalArgs(form.Cdr)
			if err != nil {
				return core.NilValue, err
			}
			return in.applyFn(fn, args)
		}
		return core.NilValue, errf(form, "bad function position")
	}
	if sf, ok := specialForms[head]; ok {
		return sf(in, form.Cdr)
	}
	if steps, mask, ok := sexpr.Accessor(head); ok {
		args, err := in.evalArgs(form.Cdr)
		if err != nil {
			return core.NilValue, err
		}
		if len(args) != 1 {
			in.releaseAll(args)
			return core.NilValue, errf(form, "%s wants 1 arg", head)
		}
		return in.cxr(steps, mask, args[0])
	}
	if p, ok := primitives[head]; ok {
		args, err := in.evalArgs(form.Cdr)
		if err != nil {
			return core.NilValue, err
		}
		v, err := p(in, args)
		in.releaseAll(args)
		if err != nil {
			return core.NilValue, fmt.Errorf("%w in %s", err, sexpr.String(form))
		}
		return v, nil
	}
	if fn, ok := in.fns[head]; ok {
		args, err := in.evalArgs(form.Cdr)
		if err != nil {
			return core.NilValue, err
		}
		return in.applyFn(fn, args)
	}
	return core.NilValue, errf(form, "undefined function %s", head)
}

// evalArgs evaluates a form list; the caller owns the returned holds.
func (in *Interp) evalArgs(v sexpr.Value) ([]core.Value, error) {
	var args []core.Value
	for {
		c, ok := v.(*sexpr.Cell)
		if !ok {
			return args, nil
		}
		a, err := in.eval(c.Car)
		if err != nil {
			in.releaseAll(args)
			return nil, err
		}
		args = append(args, a)
		v = c.Cdr
	}
}

func (in *Interp) releaseAll(vs []core.Value) {
	for _, v := range vs {
		in.m.Release(v)
	}
}

// applyFn binds arguments into a fresh frame (ownership moves to the
// stack) and evaluates the body.
func (in *Interp) applyFn(fn *function, args []core.Value) (core.Value, error) {
	if len(args) != len(fn.params) {
		in.releaseAll(args)
		return core.NilValue, errf(fn.name, "%s called with %d args, wants %d",
			fn.name, len(args), len(fn.params))
	}
	in.depth++
	in.pushFrame()
	for i, p := range fn.params {
		in.bind(p, args[i])
	}
	ret := core.NilValue
	var err error
	for _, b := range fn.body {
		in.m.Release(ret)
		ret, err = in.eval(b)
		if err != nil {
			break
		}
	}
	if rs, ok := err.(*returnSignal); ok {
		ret, err = rs.val, nil
	}
	in.popFrame()
	in.depth--
	if err != nil {
		return core.NilValue, err
	}
	return ret, nil
}

// cxr applies a composite accessor (see sexpr.Accessor), releasing
// intermediates.
func (in *Interp) cxr(steps int, mask uint8, v core.Value) (core.Value, error) {
	cur := v
	for j := 0; j < steps; j++ {
		var next core.Value
		var err error
		if mask>>j&1 == 1 {
			next, err = in.m.Car(cur)
		} else {
			next, err = in.m.Cdr(cur)
		}
		in.m.Release(cur)
		if err != nil {
			return core.NilValue, err
		}
		cur = next
	}
	return cur, nil
}

func parseLambda(name sexpr.Symbol, lam *sexpr.Cell) (*function, error) {
	rest, ok := lam.Cdr.(*sexpr.Cell)
	if !ok {
		return nil, errf(lam, "malformed lambda")
	}
	fn := &function{name: name}
	for p := rest.Car; ; {
		c, ok := p.(*sexpr.Cell)
		if !ok {
			break
		}
		s, ok := c.Car.(sexpr.Symbol)
		if !ok {
			return nil, errf(lam, "non-symbol parameter")
		}
		fn.params = append(fn.params, s)
		p = c.Cdr
	}
	for b := rest.Cdr; ; {
		c, ok := b.(*sexpr.Cell)
		if !ok {
			break
		}
		fn.body = append(fn.body, c.Car)
		b = c.Cdr
	}
	return fn, nil
}
