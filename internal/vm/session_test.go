package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lisp"
	"repro/internal/sexpr"
)

func newTestSession() *Session {
	return NewSession(WithMachine(core.NewMachine(core.Config{})), WithStepLimit(5_000_000))
}

func mustRun(t testing.TB, s *Session, src string) string {
	t.Helper()
	v, err := s.Run(src)
	if err != nil {
		t.Fatalf("Run(%.80q): %v", src, err)
	}
	return sexpr.String(v)
}

// TestSessionSourceOrder: forms take effect in source order, so a form
// before a def calls the old binding, and an eval whose last form is a
// def answers the def's name.
func TestSessionSourceOrder(t *testing.T) {
	s := newTestSession()
	if got := mustRun(t, s, "(def f (lambda () 1))"); got != "f" {
		t.Errorf("def answered %s, want f", got)
	}
	if got := mustRun(t, s, "(setq a (f)) (def f (lambda () 2)) (list a (f))"); got != "(1 2)" {
		t.Errorf("redefinition in source order: %s, want (1 2)", got)
	}
	if got := mustRun(t, s, "(f) (def g (lambda (x) x))"); got != "g" {
		t.Errorf("last form a def answered %s, want g", got)
	}
	// Redefining a callee repoints the callers compiled earlier.
	mustRun(t, s, "(def caller (lambda (x) (g x)))")
	mustRun(t, s, "(def g (lambda (x) (cons x x)))")
	if got := mustRun(t, s, "(caller 3)"); got != "(3 . 3)" {
		t.Errorf("caller after callee redefinition: %s", got)
	}
}

// TestSessionForwardReference: a call of a function not yet defined
// fails as in the interpreter, before its arguments run, and works once
// the function arrives.
func TestSessionForwardReference(t *testing.T) {
	s := newTestSession()
	mustRun(t, s, "(setq n 0) (def g (lambda () (h (setq n (add1 n)))))")
	if _, err := s.Run("(g)"); err == nil || !strings.Contains(err.Error(), "undefined function h") {
		t.Fatalf("call of undefined h: %v", err)
	}
	if got := mustRun(t, s, "n"); got != "0" {
		t.Errorf("the undefined call evaluated its argument: n = %s", got)
	}
	mustRun(t, s, "(def h (lambda (x) (list x x)))")
	if got := mustRun(t, s, "(g)"); got != "(1 1)" {
		t.Errorf("after h arrives: %s", got)
	}
	mustRun(t, s, "(def h (lambda () 0))")
	if _, err := s.Run("(g)"); err == nil || !strings.Contains(err.Error(), "h called with 1 args, wants 0") {
		t.Errorf("arity mismatch after redefinition: %v", err)
	}
}

// TestSessionErrorLeavesSessionAsItWas: a compile error anywhere in an
// eval undoes everything the eval placed, and defs never run.
func TestSessionErrorLeavesSessionAsItWas(t *testing.T) {
	s := newTestSession()
	mustRun(t, s, "(def f (lambda (x) (cons x nil))) (setq v 1)")
	code := append([]Instr(nil), s.l.prog.Code...)
	live, funcs := s.l.live, len(s.l.prog.Funcs)
	sites := len(s.l.sites["f"])
	for _, bad := range []string{
		"(def k (lambda () (f 1))) (setq v 2) (car 1 2)",
		"(f 1) (def f (lambda (x) (go nowhere)))",
		"(if v 1 2)",
		"(f 1",
	} {
		if _, err := s.Run(bad); err == nil {
			t.Fatalf("Run(%q) succeeded", bad)
		}
		if len(s.l.prog.Code) != len(code) || s.l.live != live || len(s.l.prog.Funcs) != funcs || len(s.l.sites["f"]) != sites {
			t.Fatalf("after %q: code %d (want %d), live %d (want %d), funcs %d (want %d), sites %d (want %d)",
				bad, len(s.l.prog.Code), len(code), s.l.live, live, len(s.l.prog.Funcs), funcs, len(s.l.sites["f"]), sites)
		}
		for pc := range code {
			if s.l.prog.Code[pc] != code[pc] {
				t.Fatalf("after %q: instruction %d is %v, was %v", bad, pc, s.l.prog.Code[pc], code[pc])
			}
		}
	}
	if got := mustRun(t, s, "(list v (f 2))"); got != "(1 (2))" {
		t.Errorf("session state after failed evals: %s", got)
	}
}

// TestSessionOutsideLanguage: a form the VM does not compile names the
// interpreter backend.
func TestSessionOutsideLanguage(t *testing.T) {
	s := newTestSession()
	for _, src := range []string{
		"(if t 1 2)", "(progn 1 2)", "(+ 1 2 3)", "(- 5)", "(mapcar 'car '((a)))",
		"1.5", `"str"`, "((lambda (x) x) 1)", "(print 1 2)",
		"(def f (nlambda (x) x))", "(eq (list 1) (list 1))", "(prog () (return 1))",
		"(def f (lambda () (prog () (prog () (return 1)))))",
		"(def f (lambda () (prog () (return 1)) 2))", "(read counter)",
	} {
		_, err := s.Run(src)
		if err == nil || !strings.Contains(err.Error(), `"backend":"lisp"`) {
			t.Errorf("Run(%s): %v, want an error naming the lisp backend", src, err)
		}
	}
}

// TestSessionEqualityOnCycles: eq and equal of circular lists answer as
// in the interpreter rather than recursing without end.
func TestSessionEqualityOnCycles(t *testing.T) {
	const src = "(setq a (list 1 2)) (rplacd (cdr a) a) (setq b (list 1 2)) (rplacd (cdr b) b) " +
		"(list (eq a a) (equal a a) (equal a b) (equal a (cdr a)) (eq a 'x))"
	want, err := lisp.New().Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, newTestSession(), src); got != sexpr.String(want) || got != "(t t t nil nil)" {
		t.Errorf("vm %s, interpreter %s, want (t t t nil nil)", got, sexpr.String(want))
	}
}

// TestVMBuiltinsAreInterpreterBuiltins: every name the VM compiles
// itself is one the interpreter evaluates itself, and a call of any
// other interpreter builtin is an outside-language error, never a call
// of a user function of that name.
func TestVMBuiltinsAreInterpreterBuiltins(t *testing.T) {
	var own []sexpr.Symbol
	for _, table := range []map[sexpr.Symbol]Opcode{unOps, binOps, naryOps} {
		for name := range table {
			own = append(own, name)
		}
	}
	for name := range eqModes {
		own = append(own, name)
	}
	own = append(own, "quote", "cond", "let", "prog", "go", "return", "setq", "and", "or", symRead, "print", "putprop", "cadr", "cddddr")
	for _, name := range own {
		if !vmBuiltin(name) {
			t.Errorf("vmBuiltin(%s) is false, but call compiles it", name)
		}
		if !lisp.IsBuiltin(name) {
			t.Errorf("the VM compiles %s, which the interpreter does not define", name)
		}
	}
	for _, name := range lisp.Builtins() {
		if vmBuiltin(name) {
			continue
		}
		form := sexpr.List(sexpr.Symbol("null"), sexpr.List(name)) // below top level
		_, err := CompileForms([]sexpr.Value{form})
		if err == nil || !strings.Contains(err.Error(), `"backend":"lisp"`) {
			t.Errorf("%s: %v, want an error naming the lisp backend", sexpr.String(form), err)
		}
	}
}

// TestSessionEvalAllocsIndependentOfDefs: a one-form eval costs the same
// whether the session holds 5 defs or 500 — nothing is recompiled.
func TestSessionEvalAllocsIndependentOfDefs(t *testing.T) {
	allocs := func(ndefs int) float64 {
		s := newTestSession()
		var b strings.Builder
		for i := range ndefs {
			fmt.Fprintf(&b, "(def f%d (lambda (x) (cons x (g x))))\n", i)
		}
		b.WriteString("(def g (lambda (x) x)) (setq scratch (list 1 2 3))")
		mustRun(t, s, b.String())
		mustRun(t, s, "(f0 (cadr scratch))")
		// The closure leaves the value unprinted: printing goes through
		// fmt's sync.Pool, which the race detector empties at random.
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Run("(f0 (cadr scratch))"); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(5), allocs(500)
	if few != many {
		t.Errorf("one-form eval allocates %.1f times with 5 defs, %.1f with 500", few, many)
	}
}

// TestSessionCodeBoundedUnderRedefinition: 10k redefinitions of a
// called helper leave the code no larger than a few times the live code.
func TestSessionCodeBoundedUnderRedefinition(t *testing.T) {
	s := newTestSession()
	mustRun(t, s, "(def helper (lambda (x) (+ x 1))) (def caller (lambda (x) (helper x)))")
	maxCode, maxLive := 0, 0
	for i := range 10_000 {
		mustRun(t, s, fmt.Sprintf("(def helper (lambda (x) (+ x %d)))", i%9+1))
		if i%7 == 0 {
			mustRun(t, s, "(def caller (lambda (x) (list (helper x) (helper x))))")
		}
		maxCode, maxLive = max(maxCode, len(s.l.prog.Code)), max(maxLive, s.l.live)
	}
	if got := mustRun(t, s, "(caller 10)"); got != fmt.Sprintf("(%d %d)", 10+9999%9+1, 10+9999%9+1) {
		t.Errorf("caller after redefinitions: %s", got)
	}
	if bound := nStubs + 2*maxLive; maxCode > bound {
		t.Errorf("code grew to %d instructions, bound %d (live at most %d)", maxCode, bound, maxLive)
	}
	for name, pcs := range s.l.sites {
		if len(pcs) > 64 {
			t.Errorf("%d call sites listed for %s", len(pcs), name)
		}
	}
}

// TestSessionFlatOverManyEvals: the atom table, heap and LPT stay flat
// over many evals that count and cons integers.
func TestSessionFlatOverManyEvals(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	s := newTestSession()
	mustRun(t, s, "(setq scratch (list 0 1 2 3)) (setq counter 0)")
	const eval = "(setq counter (add1 counter)) (setq pair (cons counter (car scratch)))"
	mustRun(t, s, eval)
	m := s.Machine()
	atoms, cells, entries := m.Heap().Atoms().Len(), m.Heap().Capacity()-m.Heap().FreeCells(), m.InUse()
	for range n {
		mustRun(t, s, eval)
	}
	if got := mustRun(t, s, "pair"); got != fmt.Sprintf("(%d . 0)", n+1) {
		t.Errorf("pair = %s", got)
	}
	if a := m.Heap().Atoms().Len(); a != atoms {
		t.Errorf("atom table grew from %d to %d", atoms, a)
	}
	if c := m.Heap().Capacity() - m.Heap().FreeCells(); c != cells {
		t.Errorf("heap cells in use grew from %d to %d", cells, c)
	}
	if e := m.InUse(); e != entries {
		t.Errorf("LPT entries in use grew from %d to %d", entries, e)
	}
	if len(s.l.prog.Code) != nStubs {
		t.Errorf("code holds %d instructions, want only the stubs", len(s.l.prog.Code))
	}
}

// TestSessionReleasesLargeTail: a large load's top-level code does not
// stay allocated after it has run.
func TestSessionReleasesLargeTail(t *testing.T) {
	var b strings.Builder
	b.WriteString("(def f (lambda (x) (car x))) (setq doc '(")
	for i := range 2000 {
		fmt.Fprintf(&b, "(w%d %d) ", i%50, i)
	}
	b.WriteString("))")
	s := newTestSession()
	mustRun(t, s, b.String())
	if c := cap(s.l.prog.Code); c > 4*len(s.l.prog.Code) {
		t.Errorf("code keeps capacity %d for %d instructions", c, len(s.l.prog.Code))
	}
	if c := cap(s.v.symCache); c > 4*len(s.l.prog.Code) {
		t.Errorf("symbol cache keeps capacity %d for %d instructions", c, len(s.l.prog.Code))
	}
}

// TestSessionSitesBounded: calls of ever-new names from top-level code
// do not grow the call-site directory.
func TestSessionSitesBounded(t *testing.T) {
	s := newTestSession()
	mustRun(t, s, "(def g (lambda (x) x))")
	for i := range 1000 {
		if _, err := s.Run(fmt.Sprintf("(g (undefined%d 1))", i)); err == nil {
			t.Fatal("call of an undefined function succeeded")
		}
	}
	if n := len(s.l.sites); n != 0 {
		t.Errorf("%d callees listed after 1000 evals calling new names, want 0", n)
	}
}
