package lisp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/sexpr"
)

// FnKind is the function calling convention (§2.2.1, Franz conventions).
type FnKind uint8

const (
	// Expr functions have a fixed number of arguments, all evaluated.
	Expr FnKind = iota
	// Lexpr functions receive their evaluated arguments as a single list.
	Lexpr
	// Fexpr functions receive their arguments unevaluated, as a list.
	Fexpr
)

// Function is a user-defined function.
type Function struct {
	Name   sexpr.Symbol
	Kind   FnKind
	Params []sexpr.Symbol
	Body   []sexpr.Value
}

// TraceSink receives the trace events the thesis's modified interpreter
// wrote to its trace file (§3.3.1): every list primitive call with its
// arguments in s-expression form, and every user function entry/exit with
// its argument count.
type TraceSink interface {
	Prim(op string, args []sexpr.Value, result sexpr.Value, depth int)
	Enter(name string, nargs, depth int)
	Exit(name string, depth int)
}

// ErrStepLimit is returned when evaluation exceeds the configured budget.
var ErrStepLimit = errors.New("lisp: step limit exceeded")

// Error is a Lisp-level evaluation error.
type Error struct {
	Msg  string
	Form sexpr.Value
}

func (e *Error) Error() string {
	if e.Form == nil {
		return "lisp: " + e.Msg
	}
	return fmt.Sprintf("lisp: %s: %s", e.Msg, sexpr.String(e.Form))
}

func errf(form sexpr.Value, format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Form: form}
}

// Interp is a Lisp interpreter instance.
type Interp struct {
	env     Env
	fns     map[sexpr.Symbol]*Function
	props   map[sexpr.Symbol]map[sexpr.Symbol]sexpr.Value
	trace   TraceSink
	depth   int // user function call depth
	gensym  int
	out     io.Writer
	input   []sexpr.Value // queue consumed by (read)
	steps   int64
	maxStep int64
	ctxDone <-chan struct{}
	ctxErr  func() error
	specs   map[sexpr.Symbol]specialForm
	prims   map[sexpr.Symbol]primitive
}

// Option configures an Interp.
type Option func(*Interp)

// WithEnv selects the environment implementation (default: deep binding).
func WithEnv(e Env) Option { return func(in *Interp) { in.env = e } }

// WithTrace installs a trace sink.
func WithTrace(t TraceSink) Option { return func(in *Interp) { in.trace = t } }

// WithOutput directs (print ...) output (default: io.Discard).
func WithOutput(w io.Writer) Option { return func(in *Interp) { in.out = w } }

// WithStepLimit bounds the number of evaluation steps (default 50M).
func WithStepLimit(n int64) Option { return func(in *Interp) { in.maxStep = n } }

// New returns an interpreter with the standard primitives installed.
func New(opts ...Option) *Interp {
	in := &Interp{
		fns:     make(map[sexpr.Symbol]*Function),
		props:   make(map[sexpr.Symbol]map[sexpr.Symbol]sexpr.Value),
		out:     io.Discard,
		maxStep: 50_000_000,
	}
	for _, o := range opts {
		o(in)
	}
	if in.env == nil {
		in.env = NewDeepEnv()
	}
	in.installSpecials()
	in.installPrims()
	return in
}

// Env exposes the interpreter's environment (for tests and stats).
func (in *Interp) Env() Env { return in.env }

// SpecialFn is the signature of an externally installed special form.
// args is the unevaluated cdr of the call form.
type SpecialFn func(in *Interp, args sexpr.Value) (sexpr.Value, error)

// InstallSpecial registers (or overrides) a special form under name.
// Special forms shadow primitives and user functions of the same name;
// the dml layer uses this to graft pcall/future/touch onto a stock
// interpreter without the core dialect knowing about them.
func (in *Interp) InstallSpecial(name sexpr.Symbol, fn SpecialFn) {
	in.specs[name] = specialForm(fn)
}

// SetStepLimit adjusts the evaluation budget of a live interpreter
// (n <= 0 means unlimited). Long-lived session hosts combine this with
// ResetSteps to grant each request its own budget.
func (in *Interp) SetStepLimit(n int64) {
	if n <= 0 {
		n = 1<<63 - 1
	}
	in.maxStep = n
}

// ResetSteps zeroes the step counter, starting a fresh budget window.
func (in *Interp) ResetSteps() { in.steps = 0 }

// Steps returns the number of evaluation steps taken since the last
// ResetSteps (or construction).
func (in *Interp) Steps() int64 { return in.steps }

// SetContext installs a cancellation context, polled every 1024 steps in
// the eval loop: when ctx is done, evaluation unwinds with ctx.Err().
// Pass nil to detach. The interpreter holds only the Done channel, so a
// per-request context must be re-installed on each use.
func (in *Interp) SetContext(ctx context.Context) {
	if ctx == nil {
		in.ctxDone, in.ctxErr = nil, nil
		return
	}
	in.ctxDone, in.ctxErr = ctx.Done(), ctx.Err
}

// SetInput queues values for (read) to return in order.
func (in *Interp) SetInput(vs []sexpr.Value) { in.input = vs }

// Depth returns the current user-function call depth.
func (in *Interp) Depth() int { return in.depth }

// Functions returns the names of the defined user functions.
func (in *Interp) Functions() []sexpr.Symbol {
	out := make([]sexpr.Symbol, 0, len(in.fns))
	for name := range in.fns {
		out = append(out, name)
	}
	return out
}

// Run parses and evaluates every form in src, returning the value of the
// last form.
func (in *Interp) Run(src string) (sexpr.Value, error) {
	forms, err := sexpr.ParseAll(src)
	if err != nil {
		return nil, err
	}
	var last sexpr.Value
	for _, f := range forms {
		last, err = in.Eval(f)
		if err != nil {
			return nil, err
		}
	}
	// A value the printer cannot render in full (a circular list) is an
	// error, as it is on the VM.
	if err := sexpr.Printable(last); err != nil {
		return nil, err
	}
	return last, nil
}

// Eval evaluates one form in the current environment.
func (in *Interp) Eval(form sexpr.Value) (sexpr.Value, error) {
	in.steps++
	if in.steps > in.maxStep {
		return nil, ErrStepLimit
	}
	if in.ctxDone != nil && in.steps&1023 == 0 {
		select {
		case <-in.ctxDone:
			return nil, fmt.Errorf("lisp: evaluation cancelled: %w", in.ctxErr())
		default:
		}
	}
	switch f := form.(type) {
	case nil:
		return nil, nil
	case sexpr.Int, sexpr.Float, sexpr.Str:
		return form, nil
	case sexpr.Symbol:
		if f == "t" || f == "T" {
			return sexpr.Symbol("t"), nil
		}
		if v, ok := in.env.Lookup(f); ok {
			return v, nil
		}
		return nil, errf(form, "unbound variable %s", f)
	case *sexpr.Cell:
		return in.evalCall(f)
	default:
		return nil, errf(form, "cannot evaluate")
	}
}

func (in *Interp) evalCall(form *sexpr.Cell) (sexpr.Value, error) {
	head, ok := form.Car.(sexpr.Symbol)
	if !ok {
		// ((lambda (x) ...) args...) — immediate lambda application.
		if lam, ok := form.Car.(*sexpr.Cell); ok && lam.Car == sexpr.Symbol("lambda") {
			fn, err := in.parseLambda(sexpr.Symbol("<lambda>"), lam, Expr)
			if err != nil {
				return nil, err
			}
			args, err := in.evalArgs(form.Cdr)
			if err != nil {
				return nil, err
			}
			return in.applyUser(fn, args)
		}
		return nil, errf(form, "bad function position")
	}
	if sf, ok := in.specs[head]; ok {
		return sf(in, form.Cdr)
	}
	if p, ok := in.prims[head]; ok {
		args, err := in.evalArgs(form.Cdr)
		if err != nil {
			return nil, err
		}
		return in.callPrim(head, p, args, form)
	}
	if steps, mask, ok := sexpr.Accessor(head); ok {
		args, err := in.evalArgs(form.Cdr)
		if err != nil {
			return nil, err
		}
		if len(args) != 1 {
			return nil, errf(form, "%s wants 1 arg", head)
		}
		return in.cxr(steps, mask, args[0]), nil
	}
	if fn, ok := in.fns[head]; ok {
		switch fn.Kind {
		case Fexpr:
			// arguments passed unevaluated as a single list
			return in.applyUser(fn, []sexpr.Value{listArgs(form.Cdr)})
		case Lexpr:
			args, err := in.evalArgs(form.Cdr)
			if err != nil {
				return nil, err
			}
			return in.applyUser(fn, []sexpr.Value{sexpr.List(args...)})
		default:
			args, err := in.evalArgs(form.Cdr)
			if err != nil {
				return nil, err
			}
			return in.applyUser(fn, args)
		}
	}
	return nil, errf(form, "undefined function %s", head)
}

func listArgs(v sexpr.Value) sexpr.Value {
	var items []sexpr.Value
	for c, ok := v.(*sexpr.Cell); ok; c, ok = c.Cdr.(*sexpr.Cell) {
		items = append(items, c.Car)
	}
	return sexpr.List(items...)
}

func (in *Interp) evalArgs(v sexpr.Value) ([]sexpr.Value, error) {
	var args []sexpr.Value
	for {
		c, ok := v.(*sexpr.Cell)
		if !ok {
			return args, nil
		}
		a, err := in.Eval(c.Car)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		v = c.Cdr
	}
}

// applyUser invokes a user-defined function: push a frame, bind formals,
// evaluate the body, pop the frame. Entry and exit are traced.
func (in *Interp) applyUser(fn *Function, args []sexpr.Value) (sexpr.Value, error) {
	if fn.Kind == Expr && len(args) != len(fn.Params) {
		return nil, errf(fn.Name, "%s called with %d args, wants %d", fn.Name, len(args), len(fn.Params))
	}
	in.depth++
	if in.trace != nil {
		in.trace.Enter(string(fn.Name), len(args), in.depth)
	}
	in.env.Push()
	for i, p := range fn.Params {
		var v sexpr.Value
		if i < len(args) {
			v = args[i]
		}
		in.env.Bind(p, v)
	}
	var ret sexpr.Value
	var err error
	for _, b := range fn.Body {
		ret, err = in.Eval(b)
		if err != nil {
			break
		}
	}
	if r, ok := err.(*returnSignal); ok {
		ret, err = r.val, nil
	}
	in.env.Pop()
	if in.trace != nil {
		in.trace.Exit(string(fn.Name), in.depth)
	}
	in.depth--
	return ret, err
}

// Apply calls a named user function or primitive with pre-evaluated args.
func (in *Interp) Apply(name sexpr.Symbol, args []sexpr.Value) (sexpr.Value, error) {
	if p, ok := in.prims[name]; ok {
		return in.callPrim(name, p, args, nil)
	}
	if fn, ok := in.fns[name]; ok {
		return in.applyUser(fn, args)
	}
	return nil, errf(name, "undefined function %s", name)
}

func (in *Interp) callPrim(name sexpr.Symbol, p primitive, args []sexpr.Value, form sexpr.Value) (sexpr.Value, error) {
	res, err := p.fn(in, args)
	if err != nil {
		if form != nil {
			err = fmt.Errorf("%w in %s", err, sexpr.String(form))
		}
		return nil, err
	}
	if p.traced && in.trace != nil {
		in.trace.Prim(string(name), args, res, in.depth)
	}
	return res, nil
}

// tracePrim reports an internally generated primitive event (used by
// library functions like append that are built from car/cdr/cons).
func (in *Interp) tracePrim(op string, args []sexpr.Value, res sexpr.Value) {
	if in.trace != nil {
		in.trace.Prim(op, args, res, in.depth)
	}
}

// returnSignal implements (return v) inside prog; it unwinds through Eval
// as an error until the enclosing prog (or function body) catches it.
type returnSignal struct{ val sexpr.Value }

func (*returnSignal) Error() string { return "lisp: return outside prog" }

// goSignal implements (go label) inside prog.
type goSignal struct{ label sexpr.Symbol }

func (g *goSignal) Error() string { return "lisp: go outside prog: " + string(g.label) }

// parseLambda converts (lambda (params) body...) into a Function.
func (in *Interp) parseLambda(name sexpr.Symbol, lam *sexpr.Cell, kind FnKind) (*Function, error) {
	rest, ok := lam.Cdr.(*sexpr.Cell)
	if !ok {
		return nil, errf(lam, "malformed lambda")
	}
	fn := &Function{Name: name, Kind: kind}
	params := rest.Car
	for {
		c, ok := params.(*sexpr.Cell)
		if !ok {
			break
		}
		p, ok := c.Car.(sexpr.Symbol)
		if !ok {
			return nil, errf(lam, "non-symbol parameter")
		}
		fn.Params = append(fn.Params, p)
		params = c.Cdr
	}
	for b := rest.Cdr; ; {
		c, ok := b.(*sexpr.Cell)
		if !ok {
			break
		}
		fn.Body = append(fn.Body, c.Car)
		b = c.Cdr
	}
	return fn, nil
}

// Format prints values the way (print ...) does.
func Format(v sexpr.Value) string { return sexpr.String(v) }

// must2 returns the two elements of args or an arity error.
func must2(name string, args []sexpr.Value) (sexpr.Value, sexpr.Value, error) {
	if len(args) != 2 {
		return nil, nil, errf(nil, "%s wants 2 args, got %d", name, len(args))
	}
	return args[0], args[1], nil
}

func must1(name string, args []sexpr.Value) (sexpr.Value, error) {
	if len(args) != 1 {
		return nil, errf(nil, "%s wants 1 arg, got %d", name, len(args))
	}
	return args[0], nil
}
