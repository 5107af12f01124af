package vm

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sexpr"
)

func runVM(t *testing.T, src string, opts ...Option) sexpr.Value {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	v, err := New(prog, opts...).Run()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, prog.Listing())
	}
	return v
}

func checkVM(t *testing.T, src, want string, opts ...Option) {
	t.Helper()
	if got := sexpr.String(runVM(t, src, opts...)); got != want {
		t.Errorf("%s => %s, want %s", src, got, want)
	}
}

// fig414 is the factorial function of Fig 4.14, verbatim in spirit.
const fig414 = `
(def fact (lambda (x)
  (cond ((= x 0) 1)
        (t (* x (fact (- x 1)))))))
`

func TestFactorialFig414(t *testing.T) {
	checkVM(t, fig414+"(fact 5)", "120")
	checkVM(t, fig414+"(fact 10)", "3628800")
	checkVM(t, fig414+"(fact 0)", "1")
}

// TestFig414Listing checks the compiled shape matches the thesis's hand
// compilation: BINDN x, the fused NEQUALP test, recursive FCALL, MULOP.
// (- x 1) peephole-fuses into SUBIMM, the push+binop superinstruction.
func TestFig414Listing(t *testing.T) {
	prog, err := Compile(fig414 + "(fact 5)")
	if err != nil {
		t.Fatal(err)
	}
	listing := prog.Listing()
	for _, want := range []string{"BINDN    x", "NEQUALP", "FCALL    fact/1", "MULOP", "SUBIMM", "FRETN"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

// TestFig415 reproduces the list-manipulation/function-calling example of
// Fig 4.15: reading a list, printing its cdr, and taking cddr.
func TestFig415(t *testing.T) {
	src := `
(def print-it (lambda (junk)
  (print (cdr junk))))

(def doit (lambda ()
  (prog (lst)
    (read lst)
    (print-it lst)
    (setq lst (cdr (cdr lst)))
    (return lst))))

(doit)
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	input, _ := sexpr.ParseAll("(a b c d)")
	var out strings.Builder
	v, err := New(prog, WithInput(input), WithOutput(&out)).Run()
	if err != nil {
		t.Fatalf("%v\n%s", err, prog.Listing())
	}
	if got := sexpr.String(v); got != "(c d)" {
		t.Errorf("doit => %s", got)
	}
	if out.String() != "(b c d)\n" {
		t.Errorf("printed %q", out.String())
	}
	// (cdr junk) fuses into CDRSTK; (cdr (cdr lst)) into the CXR run
	// superinstruction; (setq lst ...) in statement position into SETQPOP.
	listing := prog.Listing()
	for _, want := range []string{"RDLIST", "WRLIST", "CDRSTK", "CXR", "SETQPOP"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	checkVM(t, "(+ 2 3)", "5")
	checkVM(t, "(- 10 4)", "6")
	checkVM(t, "(* 6 7)", "42")
	checkVM(t, "(/ 9 2)", "4")
	checkVM(t, "(remainder 9 2)", "1")
	checkVM(t, "(+ (* 2 3) (- 10 4))", "12")
}

func TestListOps(t *testing.T) {
	checkVM(t, "(car '(a b))", "a")
	// As in the interpreter, car and cdr of nil or an atom are nil.
	checkVM(t, "(car 'a)", "nil")
	checkVM(t, "(cdr nil)", "nil")
	checkVM(t, "(caddr '(a b))", "nil")
	checkVM(t, "(cdr '(a b))", "(b)")
	checkVM(t, "(cons 'a '(b c))", "(a b c)")
	checkVM(t, "(car (cdr '(a b c)))", "b")
	checkVM(t, "'(a (b c) d)", "(a (b c) d)")
	checkVM(t, "(rplaca '(a b) 'z)", "(z b)")
	checkVM(t, "(rplacd '(a b) '(q))", "(a q)")
}

func TestPredicates(t *testing.T) {
	checkVM(t, "(atom 'a)", "t")
	checkVM(t, "(atom '(a))", "nil")
	checkVM(t, "(null nil)", "t")
	checkVM(t, "(null '(a))", "nil")
	checkVM(t, "(equal '(a b) '(a b))", "t")
	checkVM(t, "(greaterp 3 2)", "t")
	checkVM(t, "(lessp 3 2)", "nil")
	checkVM(t, "(not nil)", "t")
}

func TestCond(t *testing.T) {
	checkVM(t, "(cond (nil 1) (t 2))", "2")
	checkVM(t, "(cond ((= 1 1) 'yes) (t 'no))", "yes")
	checkVM(t, "(cond ((= 1 2) 'yes))", "nil")
	checkVM(t, "(cond ((greaterp 2 1) 'a) (t 'b))", "a")
	checkVM(t, "(cond (5))", "5")
}

func TestAndOr(t *testing.T) {
	checkVM(t, "(and 1 2 3)", "3")
	checkVM(t, "(and 1 nil 3)", "nil")
	checkVM(t, "(or nil 7)", "7")
	checkVM(t, "(or nil nil)", "nil")
	checkVM(t, "(or 5 9)", "5")
	checkVM(t, "(and)", "t")
	checkVM(t, "(or)", "nil")
}

func TestProgLoop(t *testing.T) {
	checkVM(t, `
(def countdown (lambda (n)
  (prog (acc)
    loop
    (cond ((= n 0) (return acc)))
    (setq acc (cons n acc))
    (setq n (- n 1))
    (go loop))))
(countdown 5)`, "(1 2 3 4 5)")
}

func TestDynamicNonLocal(t *testing.T) {
	checkVM(t, `
(def helper (lambda () base))
(def caller (lambda (base) (helper)))
(caller 42)`, "42")
}

func TestTopLevelSetq(t *testing.T) {
	checkVM(t, "(setq x 5) (+ x 1)", "6")
}

func TestMutualRecursionForwardCall(t *testing.T) {
	checkVM(t, `
(def is-even (lambda (n)
  (cond ((= n 0) t) (t (is-odd (- n 1))))))
(def is-odd (lambda (n)
  (cond ((= n 0) nil) (t (is-even (- n 1))))))
(is-even 10)`, "t")
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		"(no-such-fn 1)",
		"(go nowhere)",
		"(def f)",
		"(read unknown)",
		"((1 2) 3)",
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	for _, src := range []string{
		"(+ 'a 1)",
		"(/ 1 0)",
		"(rplaca 'a 1)",
	} {
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		if _, err := New(prog).Run(); err == nil {
			t.Errorf("Run(%q): expected error", src)
		}
	}
}

func TestStepLimit(t *testing.T) {
	prog, err := Compile("(prog () loop (go loop))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog, WithStepLimit(500)).Run(); err != ErrStepLimit {
		t.Errorf("expected step limit, got %v", err)
	}
}

// TestLPTBalanced: after a recursion-heavy run, every EP hold has been
// released, so the only live LPT entries are top-level bindings.
func TestLPTBalanced(t *testing.T) {
	m := core.NewMachine(core.Config{LPTSize: 2048})
	prog, err := Compile(fig414 + "(fact 8)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(prog, WithMachine(m)).Run(); err != nil {
		t.Fatal(err)
	}
	// fact uses only integers; nothing should be left in the table except
	// possibly the final value (an atom — so nothing).
	if m.InUse() > 1 {
		t.Errorf("LPT leak: %d entries live after run", m.InUse())
	}
}

// TestListRecursionOnSMALL runs a structure-building recursion and checks
// both the value and that the machine saw cons traffic with no heap
// splits beyond the literals.
func TestListRecursionOnSMALL(t *testing.T) {
	m := core.NewMachine(core.Config{LPTSize: 2048})
	src := `
(def iota (lambda (n)
  (cond ((= n 0) nil)
        (t (cons n (iota (- n 1)))))))
(iota 6)`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(prog, WithMachine(m)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sexpr.String(v); got != "(6 5 4 3 2 1)" {
		t.Errorf("iota => %s", got)
	}
	st := m.Stats()
	if st.HeapSplits != 0 {
		t.Errorf("pure cons recursion should not split: %d", st.HeapSplits)
	}
}

func TestLet(t *testing.T) {
	checkVM(t, "(let ((a 2) (b 3)) (* a b))", "6")
	checkVM(t, "(let ((a 1)) (let ((b (+ a 1))) (+ a b)))", "3")
	checkVM(t, "(let (unset) unset)", "nil")
	checkVM(t, "(let ((a 1) (b 2)) (cons a (cons b nil)))", "(1 2)")
	// Initialisers see outer bindings, not each other's new slots.
	checkVM(t, `
(def f (lambda (x)
  (let ((x (+ x 1)) (y (* x 2)))
    (cons x (cons y nil)))))
(f 5)`, "(6 10)")
	checkVM(t, "(let () 42)", "42")
	checkVM(t, `
(def g (lambda (l)
  (let ((h (car l)) (r (cdr l)))
    (cons r (cons h nil)))))
(g '(a b c))`, "((b c) a)")
}
