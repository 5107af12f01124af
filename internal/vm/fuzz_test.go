package vm_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lisp"
	"repro/internal/vm"
)

// FuzzSessionParity runs a generated session script, one eval at a
// time, on the interpreter and on a vm.Session, and demands that every
// eval agree on its value, its printed output and whether it failed, or
// that the VM refuse it at compile time as outside its language. The
// input seeds the script generator; testdata/fuzz holds the corpus
// `make fuzz-corpus` replays.
func FuzzSessionParity(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSessionParity(t, genScript(rand.New(rand.NewSource(seed))))
	})
}

// TestSessionParityScripts runs a few hundred generated scripts, so the
// plain test run covers far more than the fuzz corpus.
func TestSessionParityScripts(t *testing.T) {
	n := int64(300)
	if testing.Short() {
		n = 40
	}
	for seed := range n {
		script := genScript(rand.New(rand.NewSource(1000 + seed)))
		if !t.Run(fmt.Sprint(1000+seed), func(t *testing.T) { checkSessionParity(t, script) }) {
			return
		}
	}
}

// checkSessionParity evaluates script on both engines, eval by eval. An
// eval the VM refuses at compile time as outside its language leaves the
// VM session as it was, so the interpreter does not run it either.
func checkSessionParity(t *testing.T, script []string) {
	t.Helper()
	var iout, vout bytes.Buffer
	in := lisp.New(lisp.WithOutput(&iout), lisp.WithStepLimit(2_000_000))
	vs := vm.NewSession(vm.WithMachine(core.NewMachine(core.Config{LPTSize: 256})),
		vm.WithOutput(&vout), vm.WithStepLimit(20_000_000))
	for i, src := range script {
		iout.Reset()
		vout.Reset()
		vv, verr := vs.Run(src)
		var cerr *vm.CompileError
		if errors.As(verr, &cerr) && strings.Contains(verr.Error(), `"backend":"lisp"`) {
			continue
		}
		iv, ierr := in.Run(src)
		switch {
		case (ierr != nil) != (verr != nil):
			t.Fatalf("eval %d %s\n  interp: %v %v\n  vm:     %v %v\nscript:\n%s",
				i, src, lisp.Format(iv), ierr, lisp.Format(vv), verr, strings.Join(script[:i+1], "\n"))
		case ierr == nil && lisp.Format(iv) != lisp.Format(vv):
			t.Fatalf("eval %d %s\n  interp value %s\n  vm value     %s\nscript:\n%s",
				i, src, lisp.Format(iv), lisp.Format(vv), strings.Join(script[:i+1], "\n"))
		case iout.String() != vout.String():
			t.Fatalf("eval %d %s\n  interp printed %q\n  vm printed     %q\nscript:\n%s",
				i, src, iout.String(), vout.String(), strings.Join(script[:i+1], "\n"))
		}
	}
}

// scriptGen generates session scripts that always terminate, nearly all
// in the VM's language. Functions f0..f5 call only functions of a higher
// index, or themselves through a counter that counts down, so no
// redefinition can make a cycle. List mutation only writes the spine
// cells of scratch, always with freshly built values, so no list becomes
// circular and no quoted constant is modified. eq compares lists only
// with themselves: the VM refuses, at run time, eq of two different
// lists. A few forms lie outside the VM's language (returns from progs
// whose value is not the function's), which the VM must refuse at
// compile time.
type scriptGen struct {
	r      *rand.Rand
	arity  [nFuncs]int // fixed per name, except for deliberate mismatches
	params []string    // parameters of the function being generated
	fn     int         // index of the function being generated; -1 at top level
	depth  int
}

const nFuncs = 6

var globals = []string{"g0", "g1", "counter", "scratch", "pair"}

func genScript(r *rand.Rand) []string {
	g := &scriptGen{r: r, fn: -1}
	for i := range g.arity {
		g.arity[i] = r.Intn(3)
	}
	script := []string{"(setq g0 1) (setq g1 '(a b c)) (setq counter 0) (setq pair nil) (setq scratch (list 0 1 2 3))"}
	for range 6 + r.Intn(20) {
		script = append(script, g.eval())
	}
	return script
}

// eval generates one eval: mostly a mix of defs and top-level forms, in
// any order, sometimes a single erroneous form.
func (g *scriptGen) eval() string {
	if g.r.Intn(12) == 0 {
		return g.compileError()
	}
	var forms []string
	for range 1 + g.r.Intn(4) {
		if g.r.Intn(3) == 0 {
			forms = append(forms, g.def())
		} else {
			forms = append(forms, g.top())
		}
	}
	return strings.Join(forms, " ")
}

// compileError is a form both engines reject without any side effect.
func (g *scriptGen) compileError() string {
	bad := []string{
		"(car 1 2)", "(cons 1)", "(def 5 (lambda () 1))", "(setq 5 1)",
		"(go nowhere)", "(add1)", "(def f0 (lambda (1) 1))", "(cdr)", "(prog () (go 5))",
	}
	return bad[g.r.Intn(len(bad))]
}

func (g *scriptGen) def() string {
	i := g.r.Intn(nFuncs)
	n := g.arity[i]
	if g.r.Intn(15) == 0 {
		n = (n + 1) % 3 // an arity change: older call sites now mismatch
		g.arity[i] = n
	}
	g.fn, g.params = i, []string{"x", "y"}[:n]
	defer func() { g.fn, g.params = -1, nil }()
	name := fmt.Sprintf("f%d", i)
	params := strings.Join(g.params, " ")
	if n > 0 && g.r.Intn(3) == 0 {
		// Self-recursion that counts its first parameter down to zero.
		x := g.params[0]
		rest := ""
		if n > 1 {
			rest = " " + g.expr(1)
		}
		return fmt.Sprintf("(def %s (lambda (%s) (cond ((greaterp %s 5) 'big) ((lessp %s 1) %s) (t (cons %s (%s (sub1 %s)%s))))))",
			name, params, x, x, g.expr(2), g.expr(1), name, x, rest)
	}
	body := g.expr(3)
	switch g.r.Intn(8) {
	case 0, 1, 2:
		body = g.stmt() + " " + body
	case 3:
		body = g.progBody()
	case 4:
		// A return outside any prog leaves the function.
		body = fmt.Sprintf("(cond (%s (return %s))) %s", g.test(1), g.expr(2), body)
	}
	if g.r.Intn(2) == 0 {
		return fmt.Sprintf("(defun %s (%s) %s)", name, params, body)
	}
	return fmt.Sprintf("(def %s (lambda (%s) %s))", name, params, body)
}

// progBody is a function body whose returns leave a prog. Mostly the
// prog gives the function its value, directly or from a tail cond leg or
// let; rarely its value is discarded, or it holds another prog, and the
// VM must refuse the def.
func (g *scriptGen) progBody() string {
	prog := fmt.Sprintf("(prog (p) (setq p %s) (cond (%s (return %s))) %s (return (cons p %s)))",
		g.expr(2), g.test(1), g.expr(2), g.stmt(), g.expr(1))
	switch g.r.Intn(10) {
	case 0:
		return prog + " " + g.expr(2) // the prog's value is discarded
	case 1:
		return fmt.Sprintf("(prog () (prog () %s (return 1)) (return 2))", g.stmt())
	case 2, 3:
		return fmt.Sprintf("(cond (%s %s) (t %s))", g.test(1), g.expr(2), prog)
	case 4:
		return fmt.Sprintf("(let ((q %s)) %s)", g.expr(2), prog)
	}
	return prog
}

func (g *scriptGen) top() string {
	switch g.r.Intn(5) {
	case 0:
		switch g.r.Intn(12) {
		case 0:
			return fmt.Sprintf("(write %s)", g.expr(1)) // not a builtin in either engine
		case 1:
			return fmt.Sprintf("(return %s)", g.expr(1)) // outside any prog
		case 2:
			return fmt.Sprintf("(prog () %s (return %s))", g.stmt(), g.expr(1)) // outside the VM's language
		}
		return g.stmt()
	case 1:
		return g.call(2)
	default:
		return g.expr(3)
	}
}

// stmt is a side effect: a global assignment, a mutation of scratch's
// spine, a print, or a read with no input (nil; a global the VM
// refuses).
func (g *scriptGen) stmt() string {
	switch g.r.Intn(7) {
	case 6:
		if len(g.params) > 0 && g.r.Intn(4) > 0 {
			return fmt.Sprintf("(read %s)", g.params[g.r.Intn(len(g.params))])
		}
		return "(read counter)"
	case 0:
		return "(setq counter (add1 counter))"
	case 1:
		return fmt.Sprintf("(setq g%d %s)", g.r.Intn(2), g.expr(2))
	case 2:
		return fmt.Sprintf("(rplaca %s %s)", g.spine(), g.fresh(2))
	case 3:
		return fmt.Sprintf("(rplacd %s (list %s %s))", g.spine(), g.fresh(0), g.fresh(1))
	case 4:
		return "(setq pair (cons counter (car scratch)))"
	default:
		return fmt.Sprintf("(print %s)", g.expr(2))
	}
}

// fresh is a value that shares no cell with scratch: storing it in
// scratch cannot make a cycle. It reads no parameter, since an argument
// may be scratch itself.
func (g *scriptGen) fresh(depth int) string {
	params := g.params
	g.params = nil
	defer func() { g.params = params }()
	switch g.r.Intn(5) {
	case 0:
		return "'" + []string{"a", "b", "c"}[g.r.Intn(3)]
	case 1:
		return "'(a (b 1) c)"
	case 2:
		if depth > 0 {
			return fmt.Sprintf("(list %s %s)", g.fresh(depth-1), g.intExpr(depth-1))
		}
	case 3:
		if depth > 0 {
			return fmt.Sprintf("(cons %s 'z)", g.fresh(depth-1))
		}
	}
	return g.intExpr(depth)
}

// spine names a cell of scratch's spine, or nil past its end.
func (g *scriptGen) spine() string {
	return []string{"scratch", "(cdr scratch)", "(cddr scratch)", "(cdddr scratch)"}[g.r.Intn(4)]
}

// call calls a function this position may call: any function from the
// top level, a higher-index one from a body. The argument count is the
// function's current arity, rarely one off.
func (g *scriptGen) call(depth int) string {
	lo := g.fn + 1
	if lo >= nFuncs {
		return g.intExpr(depth)
	}
	i := lo + g.r.Intn(nFuncs-lo)
	n := g.arity[i]
	if g.r.Intn(20) == 0 {
		n = (n + 1) % 3
	}
	args := make([]string, n)
	for k := range args {
		if g.r.Intn(4) == 0 {
			args[k] = g.stmt() // side effects in arguments
		} else {
			args[k] = g.expr(depth - 1)
		}
	}
	return strings.TrimSuffix(fmt.Sprintf("(f%d %s", i, strings.Join(args, " ")), " ") + ")"
}

func (g *scriptGen) expr(depth int) string {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.r.Intn(14) {
	case 0, 1:
		return g.leaf()
	case 2:
		return g.chain(depth)
	case 3:
		return fmt.Sprintf("(cons %s %s)", g.expr(depth-1), g.expr(depth-1))
	case 4:
		return fmt.Sprintf("(list %s %s %s)", g.expr(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 5:
		return g.intExpr(depth)
	case 6:
		return fmt.Sprintf("(cond (%s %s) (t %s))", g.test(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 7:
		return fmt.Sprintf("(cond (%s) (%s %s))", g.test(depth-1), g.test(depth-1), g.expr(depth-1))
	case 8:
		return g.call(depth)
	case 9:
		return fmt.Sprintf("(let ((z %s)) (cons z %s))", g.expr(depth-1), g.expr(depth-1))
	case 10:
		return g.test(depth)
	case 11:
		return fmt.Sprintf("(and %s %s)", g.expr(depth-1), g.expr(depth-1))
	case 12:
		return fmt.Sprintf("(or %s %s)", g.test(depth-1), g.expr(depth-1))
	default:
		return fmt.Sprintf("(length %s)", g.expr(depth-1))
	}
}

// chain is a car/cdr chain that may run off the end of a list.
func (g *scriptGen) chain(depth int) string {
	e := g.expr(depth - 1)
	if g.r.Intn(2) == 0 {
		e = []string{"g1", "scratch", "pair"}[g.r.Intn(3)]
	}
	for range 1 + g.r.Intn(3) {
		var b strings.Builder
		b.WriteByte('c')
		for range 1 + g.r.Intn(4) {
			b.WriteByte("ad"[g.r.Intn(2)])
		}
		b.WriteByte('r')
		e = fmt.Sprintf("(%s %s)", b.String(), e)
	}
	return e
}

func (g *scriptGen) test(depth int) string {
	switch g.r.Intn(10) {
	case 6:
		x := g.place()
		return fmt.Sprintf("(eq %s %s)", x, x)
	case 7:
		return fmt.Sprintf("(eq %s '%s)", g.expr(depth-1), []string{"a", "b", "c"}[g.r.Intn(3)])
	case 8:
		return fmt.Sprintf("(eq %s %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 9:
		if g.r.Intn(4) == 0 {
			return fmt.Sprintf("(= %s %s)", g.expr(depth-1), g.intExpr(depth-1)) // may compare a non-number
		}
		return fmt.Sprintf("(= %s %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 0:
		return fmt.Sprintf("(null %s)", g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(atom %s)", g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(equal %s %s)", g.expr(depth-1), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(greaterp %s %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 4:
		return fmt.Sprintf("(zerop %s)", g.intExpr(depth-1))
	default:
		return fmt.Sprintf("(not %s)", g.expr(depth-1))
	}
}

// place is a variable, or a chain of accesses from a global, whose two
// evaluations in a row give the same object.
func (g *scriptGen) place() string {
	if g.r.Intn(2) == 0 {
		if len(g.params) > 0 && g.r.Intn(2) == 0 {
			return g.params[g.r.Intn(len(g.params))]
		}
		return globals[g.r.Intn(len(globals))]
	}
	return fmt.Sprintf("(%s %s)", []string{"car", "cdr", "cadr", "cddr"}[g.r.Intn(4)], []string{"g1", "scratch", "pair"}[g.r.Intn(3)])
}

// intExpr is an integer-valued expression, sometimes outside int32.
func (g *scriptGen) intExpr(depth int) string {
	if depth <= 0 {
		return g.intLeaf()
	}
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("(add1 %s)", g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(+ %s %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(* %s %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		return fmt.Sprintf("(- %s %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 4:
		return fmt.Sprintf("(length %s)", g.expr(depth-1))
	default:
		return g.intLeaf()
	}
}

func (g *scriptGen) intLeaf() string {
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprint(int64(1)<<31 + g.r.Int63n(1<<33)) // outside int32
	case 1:
		return fmt.Sprint(-int64(1)<<31 - 1 - g.r.Int63n(1000))
	case 2:
		return "counter"
	case 3:
		if len(g.params) > 0 {
			return g.params[g.r.Intn(len(g.params))]
		}
	}
	return fmt.Sprint(g.r.Intn(10))
}

func (g *scriptGen) leaf() string {
	switch g.r.Intn(9) {
	case 0, 1:
		if len(g.params) > 0 {
			return g.params[g.r.Intn(len(g.params))]
		}
		return globals[g.r.Intn(len(globals))]
	case 2:
		return globals[g.r.Intn(len(globals))]
	case 3:
		return "'" + []string{"a", "b", "c"}[g.r.Intn(3)]
	case 4:
		return "'(a (b 1) c)"
	case 5:
		return "nil"
	case 6:
		return "t"
	default:
		return g.intLeaf()
	}
}
