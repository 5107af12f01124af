package dml

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/lisp"
	"repro/internal/sexpr"
)

// EvalStats counts one evaluator's distributed activity.
type EvalStats struct {
	Spawns       int64 // futures placed on workers
	LocalEvals   int64 // spawn-eligible positions evaluated locally instead
	RemoteConses int64 // conses performed by workers on our behalf
	RemoteSteps  int64 // eval steps performed by workers on our behalf
}

// future is one outstanding (or resolved) future handle.
type future struct {
	ref      Ref  // valid while remote and unresolved
	remote   bool // under Evaluator.mu
	resolved bool // under Evaluator.mu
	value    sexpr.Value
	output   string
}

// Evaluator runs Multilisp programs against a Spawner: a local
// interpreter extended with pcall / future / touch special forms whose
// parallel branches evaluate on workers. (future e) yields a handle
// symbol future-N; (touch h) blocks for its value; (pcall f a1 .. an)
// spawns every spawnable argument, touches them in order, and applies f
// — Halstead's pcall over the distributed heap.
type Evaluator struct {
	sp   *Spawner
	in   *lisp.Interp
	out  io.Writer
	prog *Program

	mu      sync.Mutex
	ctx     context.Context          // guarded by mu; current Run's context
	futures map[sexpr.Symbol]*future // guarded by mu
	nextID  int64                    // guarded by mu
	stats   EvalStats                // guarded by mu
}

// NewEvaluator builds an evaluator over sp. Output from both local and
// remote evaluation lands on out (remote spawns are pure, so in
// practice only local forms print). Options pass through to the local
// interpreter.
func NewEvaluator(sp *Spawner, out io.Writer, opts ...lisp.Option) *Evaluator {
	if out == nil {
		out = io.Discard
	}
	e := &Evaluator{
		sp:      sp,
		out:     out,
		prog:    AnalyzeProgram(nil),
		futures: make(map[sexpr.Symbol]*future),
	}
	opts = append([]lisp.Option{lisp.WithOutput(out)}, opts...)
	e.in = lisp.New(opts...)
	e.in.InstallSpecial("pcall", e.sfPcall)
	e.in.InstallSpecial("future", e.sfFuture)
	e.in.InstallSpecial("touch", e.sfTouch)
	return e
}

// Interp exposes the local interpreter (step budgets, stats).
func (e *Evaluator) Interp() *lisp.Interp { return e.in }

// Stats snapshots the evaluator counters.
func (e *Evaluator) Stats() EvalStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Run parses and evaluates src under ctx. Definition forms accumulate
// into the program (re-tokenizing it); when transform is set, eligible
// top-level calls are rewritten to pcall before evaluation.
func (e *Evaluator) Run(ctx context.Context, src string, transform bool) (sexpr.Value, error) {
	forms, err := sexpr.ParseAll(src)
	if err != nil {
		return nil, err
	}
	e.extendProgram(forms)
	if transform {
		forms, _ = e.prog.Transform(forms)
	}
	e.mu.Lock()
	e.ctx = ctx
	e.mu.Unlock()
	e.in.SetContext(ctx)
	defer func() {
		e.in.SetContext(nil)
		e.mu.Lock()
		e.ctx = nil
		e.mu.Unlock()
	}()
	var last sexpr.Value
	for _, f := range forms {
		last, err = e.in.Eval(f)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// extendProgram folds new definition forms into the shipped program.
// The token changes, so the next spawn over each link re-installs.
func (e *Evaluator) extendProgram(forms []sexpr.Value) {
	hasDefs := false
	for _, f := range forms {
		if c, ok := f.(*sexpr.Cell); ok {
			if head, ok := c.Car.(sexpr.Symbol); ok && defForms[head] {
				hasDefs = true
				break
			}
		}
	}
	if !hasDefs && e.prog.Defs != "" {
		return
	}
	var all []sexpr.Value
	if e.prog.Defs != "" {
		prev, err := sexpr.ParseAll(e.prog.Defs)
		if err == nil {
			all = prev
		}
	}
	all = append(all, forms...)
	e.prog = AnalyzeProgram(all)
}

// runCtx returns the context of the Run in progress.
func (e *Evaluator) runCtx() context.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// spawn ships expr to a worker and returns its reference.
func (e *Evaluator) spawn(expr sexpr.Value) (Ref, error) {
	binds := e.prog.NeededGlobals(expr, e.in.Env().Lookup)
	ref, err := e.sp.Spawn(e.runCtx(), e.prog.Token, e.prog.Defs, sexpr.String(expr), binds)
	if err != nil {
		return Ref{}, err
	}
	e.mu.Lock()
	e.stats.Spawns++
	e.mu.Unlock()
	return ref, nil
}

// resolve touches ref and converts the reply into a local value,
// folding the worker's counters in and releasing the reference.
func (e *Evaluator) resolve(ref Ref) (sexpr.Value, error) {
	rep, err := e.sp.Touch(e.runCtx(), ref)
	if err != nil {
		return nil, err
	}
	e.sp.Release(ref)
	e.mu.Lock()
	e.stats.RemoteConses += rep.Conses
	e.stats.RemoteSteps += rep.Steps
	e.mu.Unlock()
	if rep.Output != "" {
		if _, err := io.WriteString(e.out, rep.Output); err != nil {
			return nil, fmt.Errorf("dml: writing remote output: %w", err)
		}
	}
	if rep.Error != "" {
		return nil, fmt.Errorf("dml: remote evaluation: %s", rep.Error)
	}
	if strings.TrimSpace(rep.Value) == "" {
		return nil, nil
	}
	return sexpr.Parse(rep.Value)
}

// sfPcall implements (pcall f a1 ... an): spawn every spawnable
// argument, evaluate the rest locally in order, touch the futures, and
// apply f to the results.
func (e *Evaluator) sfPcall(in *lisp.Interp, args sexpr.Value) (sexpr.Value, error) {
	c, ok := args.(*sexpr.Cell)
	if !ok {
		return nil, fmt.Errorf("dml: pcall with no function")
	}
	fname, ok := c.Car.(sexpr.Symbol)
	if !ok {
		return nil, fmt.Errorf("dml: pcall of non-symbol %s", sexpr.String(c.Car))
	}
	type slot struct {
		ref    Ref
		remote bool
		value  sexpr.Value
	}
	var slots []slot
	for a := c.Cdr; ; {
		ac, ok := a.(*sexpr.Cell)
		if !ok {
			break
		}
		if e.prog.Spawnable(ac.Car) {
			ref, err := e.spawn(ac.Car)
			if err != nil {
				return nil, err
			}
			slots = append(slots, slot{ref: ref, remote: true})
		} else {
			v, err := in.Eval(ac.Car)
			if err != nil {
				return nil, err
			}
			e.mu.Lock()
			e.stats.LocalEvals++
			e.mu.Unlock()
			slots = append(slots, slot{value: v})
		}
		a = ac.Cdr
	}
	vals := make([]sexpr.Value, len(slots))
	for i, s := range slots {
		if !s.remote {
			vals[i] = s.value
			continue
		}
		v, err := e.resolve(s.ref)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return in.Apply(fname, vals)
}

// sfFuture implements (future expr): spawn when shippable, otherwise
// evaluate eagerly; either way return a fresh handle symbol.
func (e *Evaluator) sfFuture(in *lisp.Interp, args sexpr.Value) (sexpr.Value, error) {
	expr := sexpr.Car(args)
	f := &future{}
	if e.prog.Spawnable(expr) {
		ref, err := e.spawn(expr)
		if err != nil {
			return nil, err
		}
		f.ref, f.remote = ref, true
	} else {
		v, err := in.Eval(expr)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.stats.LocalEvals++
		e.mu.Unlock()
		f.value, f.resolved = v, true
	}
	e.mu.Lock()
	e.nextID++
	h := sexpr.Symbol(fmt.Sprintf("future-%d", e.nextID))
	e.futures[h] = f
	e.mu.Unlock()
	return h, nil
}

// sfTouch implements (touch expr): when expr names a future handle,
// block for (and memoize) its value; any other value passes through,
// Multilisp's "touch of a non-future" convention.
func (e *Evaluator) sfTouch(in *lisp.Interp, args sexpr.Value) (sexpr.Value, error) {
	v, err := in.Eval(sexpr.Car(args))
	if err != nil {
		return nil, err
	}
	h, ok := v.(sexpr.Symbol)
	if !ok {
		return v, nil
	}
	e.mu.Lock()
	f := e.futures[h]
	e.mu.Unlock()
	if f == nil {
		return v, nil
	}
	e.mu.Lock()
	resolved, val := f.resolved, f.value
	e.mu.Unlock()
	if resolved {
		return val, nil
	}
	val, err = e.resolve(f.ref)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	f.value, f.resolved, f.remote = val, true, false
	e.mu.Unlock()
	return val, nil
}

// Close releases unresolved futures and flushes the spawner's queues on
// behalf of this evaluator. The spawner itself stays usable.
func (e *Evaluator) Close() {
	e.mu.Lock()
	var refs []Ref
	for h, f := range e.futures {
		if f.remote && !f.resolved {
			refs = append(refs, f.ref)
		}
		delete(e.futures, h)
	}
	e.mu.Unlock()
	for _, r := range refs {
		e.sp.Release(r)
	}
	e.sp.Flush()
}
