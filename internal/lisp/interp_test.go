package lisp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sexpr"
	"repro/internal/trace"
)

func run(t *testing.T, src string) sexpr.Value {
	t.Helper()
	in := New()
	v, err := in.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return v
}

func check(t *testing.T, src, want string) {
	t.Helper()
	got := sexpr.String(run(t, src))
	if got != want {
		t.Errorf("%s => %s, want %s", src, got, want)
	}
}

func TestSelfEvaluating(t *testing.T) {
	check(t, "42", "42")
	check(t, `"hi"`, `"hi"`)
	check(t, "nil", "nil")
	check(t, "t", "t")
	check(t, "3.5", "3.5")
}

func TestQuoteAndListOps(t *testing.T) {
	check(t, "'(a b c)", "(a b c)")
	check(t, "(car '(a b c))", "a")
	check(t, "(cdr '(a b c))", "(b c)")
	check(t, "(cons 'a '(b))", "(a b)")
	check(t, "(cadr '(a b c))", "b")
	check(t, "(caddr '(a b c))", "c")
	check(t, "(cdar '((a b) c))", "(b)")
	check(t, "(list 1 2 3)", "(1 2 3)")
	check(t, "(append '(a b) '(c) '(d e))", "(a b c d e)")
	check(t, "(reverse '(1 2 3))", "(3 2 1)")
	check(t, "(length '(a b c d))", "4")
	check(t, "(member 'b '(a b c))", "(b c)")
	check(t, "(member 'z '(a b c))", "nil")
	check(t, "(assoc 'b '((a 1) (b 2)))", "(b 2)")
	check(t, "(last '(a b c))", "(c)")
	check(t, "(nth 1 '(a b c))", "b")
	check(t, "(subst 'x 'b '(a b (b c)))", "(a x (x c))")
	check(t, "(nconc (list 'a 'b) (list 'c))", "(a b c)")
}

func TestRplac(t *testing.T) {
	check(t, "(progn (setq x '(a b)) (rplaca x 'z) x)", "(z b)")
	check(t, "(progn (setq x '(a b)) (rplacd x '(q)) x)", "(a q)")
}

func TestArithmetic(t *testing.T) {
	check(t, "(+ 1 2 3)", "6")
	check(t, "(- 10 4)", "6")
	check(t, "(- 5)", "-5")
	check(t, "(* 2 3 4)", "24")
	check(t, "(/ 7 2)", "3")
	check(t, "(/ 7.0 2)", "3.5")
	check(t, "(remainder 7 3)", "1")
	check(t, "(add1 5)", "6")
	check(t, "(sub1 5)", "4")
	check(t, "(min 3 1 2)", "1")
	check(t, "(max 3 1 2)", "3")
	check(t, "(abs -4)", "4")
	check(t, "(+ 1 2.5)", "3.5")
}

func TestPredicates(t *testing.T) {
	check(t, "(atom 'a)", "t")
	check(t, "(atom '(a))", "nil")
	check(t, "(null nil)", "t")
	check(t, "(null '(a))", "nil")
	check(t, "(eq 'a 'a)", "t")
	check(t, "(equal '(a b) '(a b))", "t")
	check(t, "(eq '(a) '(a))", "nil")
	check(t, "(numberp 3)", "t")
	check(t, "(numberp 'a)", "nil")
	check(t, "(zerop 0)", "t")
	check(t, "(greaterp 3 2)", "t")
	check(t, "(lessp 3 2)", "nil")
	check(t, "(= 2 2)", "t")
}

func TestCondIfLogic(t *testing.T) {
	check(t, "(cond ((eq 'a 'b) 1) ((eq 'a 'a) 2) (t 3))", "2")
	check(t, "(cond (nil 1))", "nil")
	check(t, "(cond (42))", "42")
	check(t, "(if t 'yes 'no)", "yes")
	check(t, "(if nil 'yes 'no)", "no")
	check(t, "(and 1 2 3)", "3")
	check(t, "(and 1 nil 3)", "nil")
	check(t, "(or nil nil 5)", "5")
	check(t, "(or nil nil)", "nil")
}

func TestSetqAndLet(t *testing.T) {
	check(t, "(progn (setq x 5) (+ x 1))", "6")
	check(t, "(progn (setq x 1 y 2) (+ x y))", "3")
	check(t, "(let ((a 1) (b 2)) (+ a b))", "3")
	check(t, "(progn (setq a 9) (let ((a 1)) a))", "1")
	check(t, "(progn (setq a 9) (let ((a 1)) nil) a)", "9")
}

func TestDefAndRecursion(t *testing.T) {
	check(t, `
	  (def fact (lambda (n)
	    (cond ((= n 0) 1)
	          (t (* n (fact (- n 1)))))))
	  (fact 10)`, "3628800")
	check(t, `
	  (defun fib (n)
	    (cond ((lessp n 2) n)
	          (t (+ (fib (- n 1)) (fib (- n 2))))))
	  (fib 12)`, "144")
}

func TestLexprFexpr(t *testing.T) {
	check(t, `
	  (def many (lexpr (args) (length args)))
	  (many 1 2 3 4)`, "4")
	check(t, `
	  (def firstform (nlambda (forms) (car forms)))
	  (firstform (+ 1 2) (+ 3 4))`, "(+ 1 2)")
}

func TestProgGotoReturn(t *testing.T) {
	check(t, `
	  (prog (i acc)
	    (setq i 0 acc nil)
	    loop
	    (cond ((= i 5) (return acc)))
	    (setq acc (cons i acc))
	    (setq i (add1 i))
	    (go loop))`, "(4 3 2 1 0)")
}

func TestWhile(t *testing.T) {
	check(t, `
	  (progn
	    (setq i 0 sum 0)
	    (while (lessp i 5)
	      (setq sum (+ sum i))
	      (setq i (add1 i)))
	    sum)`, "10")
}

func TestMapcarApplyFuncall(t *testing.T) {
	check(t, "(mapcar 'add1 '(1 2 3))", "(2 3 4)")
	check(t, "(mapcar (lambda (x) (* x x)) '(1 2 3))", "(1 4 9)")
	check(t, "(mapcar '+ '(1 2) '(10 20))", "(11 22)")
	check(t, "(apply '+ '(1 2 3))", "6")
	check(t, "(funcall 'cons 'a nil)", "(a)")
}

func TestImmediateLambda(t *testing.T) {
	check(t, "((lambda (x y) (+ x y)) 3 4)", "7")
}

func TestProperties(t *testing.T) {
	check(t, "(progn (putprop 'x 42 'weight) (get 'x 'weight))", "42")
	check(t, "(get 'x 'missing)", "nil")
}

func TestGensym(t *testing.T) {
	in := New()
	a, err := in.Run("(gensym)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.Run("(gensym)")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Errorf("gensym returned %v twice", a)
	}
}

func TestReadInput(t *testing.T) {
	in := New()
	vals, _ := sexpr.ParseAll("(a b) (c)")
	in.SetInput(vals)
	v, err := in.Run("(cons (read) (read))")
	if err != nil {
		t.Fatal(err)
	}
	if sexpr.String(v) != "((a b) c)" {
		t.Errorf("read => %s", sexpr.String(v))
	}
	// exhausted input reads nil
	v, _ = in.Run("(read)")
	if v != nil {
		t.Errorf("exhausted read => %v", v)
	}
}

func TestPrintOutput(t *testing.T) {
	var sb strings.Builder
	in := New(WithOutput(&sb))
	if _, err := in.Run("(print '(a b) 42)"); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "(a b) 42\n" {
		t.Errorf("output = %q", got)
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{
		"undefined-var",
		"(no-such-fn 1)",
		"(car)",
		"(cons 1)",
		"(rplaca 'a 'b)",
		"(/ 1 0)",
		"(remainder 1 0)",
		"(+ 'a 1)",
		"(error \"boom\")",
		"(go nowhere)",
		"(def f (lambda (x) x)) (f 1 2)",
	} {
		in := New()
		if _, err := in.Run(src); err == nil {
			t.Errorf("Run(%q): expected error", src)
		}
	}
}

func TestStepLimit(t *testing.T) {
	in := New(WithStepLimit(1000))
	_, err := in.Run("(def loop (lambda () (loop))) (loop)")
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("expected step limit error, got %v", err)
	}
}

func TestDynamicScoping(t *testing.T) {
	// Under dynamic binding, helper sees the caller's binding of x.
	check(t, `
	  (def helper (lambda () x))
	  (def caller (lambda (x) (helper)))
	  (caller 99)`, "99")
}

func TestTraceCollection(t *testing.T) {
	col := NewCollector("test")
	in := New(WithTrace(col))
	_, err := in.Run(`
	  (def f (lambda (l) (cons (car l) (cdr l))))
	  (f '(a b c))`)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(&col.T)
	if s.Functions != 1 {
		t.Errorf("Functions = %d, want 1", s.Functions)
	}
	if s.PerOp["car"] != 1 || s.PerOp["cdr"] != 1 || s.PerOp["cons"] != 1 {
		t.Errorf("PerOp = %v", s.PerOp)
	}
	// Events must nest: Enter f, prims at depth 1, Exit f.
	if col.T.Events[0].Kind != trace.KindEnter {
		t.Error("first event should be Enter")
	}
	last := col.T.Events[len(col.T.Events)-1]
	if last.Kind != trace.KindExit {
		t.Error("last event should be Exit")
	}
}

func TestCxrGeneratesChainedTrace(t *testing.T) {
	col := NewCollector("test")
	in := New(WithTrace(col))
	if _, err := in.Run("(caddr '(a b c))"); err != nil {
		t.Fatal(err)
	}
	// caddr = car(cdr(cdr(x))): 3 traced prims, the last two chained.
	st := trace.Preprocess(&col.T)
	if len(st.Refs) != 3 {
		t.Fatalf("got %d refs, want 3", len(st.Refs))
	}
	if st.Refs[0].Chain {
		t.Error("first cdr should not chain")
	}
	if !st.Refs[1].Chain || !st.Refs[2].Chain {
		t.Error("cdr->cdr->car should chain")
	}
}

func TestEnvironmentImplementationsAgree(t *testing.T) {
	src := `
	  (def sum-to (lambda (n acc)
	    (cond ((= n 0) acc)
	          (t (sum-to (- n 1) (+ acc n))))))
	  (setq base 100)
	  (def with-base (lambda (base) (sum-to 10 base)))
	  (cons (with-base 5) (sum-to 4 base))`
	want := "(60 . 110)"
	for name, env := range map[string]Env{
		"deep":    NewDeepEnv(),
		"shallow": NewShallowEnv(),
		"cached":  NewCachedDeepEnv(16),
	} {
		in := New(WithEnv(env))
		v, err := in.Run(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sexpr.String(v); got != want {
			t.Errorf("%s: got %s, want %s", name, got, want)
		}
	}
}

func TestCollectorMaxEvents(t *testing.T) {
	col := NewCollector("test")
	col.MaxEvents = 2
	in := New(WithTrace(col))
	if _, err := in.Run("(list 1 2 3 4 5)"); err != nil {
		t.Fatal(err)
	}
	if len(col.T.Events) != 2 {
		t.Errorf("got %d events, want 2", len(col.T.Events))
	}
}

func TestMorePrimitives(t *testing.T) {
	check(t, "(memq 'b '(a b c))", "(b c)")
	check(t, "(memq '(b) '((a) (b)))", "nil") // memq is eq-based
	check(t, "(neq 'a 'b)", "t")
	check(t, "(listp nil)", "t")
	check(t, "(listp '(a))", "t")
	check(t, "(listp 'a)", "nil")
	check(t, "(symbolp 'a)", "t")
	check(t, "(symbolp 3)", "nil")
	check(t, "(minusp -3)", "t")
	check(t, "(abs -2.5)", "2.5")
	check(t, "(add 2 3)", "5")
	check(t, "(subtract 9 4)", "5")
	check(t, "(times 3 3)", "9")
	check(t, "(quotient 8 2)", "4")
	check(t, "(mod 10 3)", "1")
	check(t, "(add1 1.5)", "2.5")
	check(t, "(sub1 1.5)", "0.5")
	check(t, "(set (car '(v)) 3) v", "3")
	check(t, "(last '(a))", "(a)")
	check(t, "(last 'a)", "nil")
	check(t, "(append)", "nil")
	check(t, "(append nil '(a))", "(a)")
	check(t, "(reverse nil)", "nil")
	check(t, "(and)", "t")
	check(t, "(or)", "nil")
	check(t, "(cond)", "nil")
	check(t, "(progn)", "nil")
	check(t, "(prog ())", "nil")
	check(t, "(let ((x 'a)) (let ((y x)) (cons y nil)))", "(a)")
}

func TestFloatRoundTripInterp(t *testing.T) {
	check(t, "(+ 0.5 0.25)", "0.75")
	check(t, "(greaterp 1.5 1)", "t")
	check(t, "(/ 1.0 4)", "0.25")
}

func TestTerpriAndPrintChain(t *testing.T) {
	var sb strings.Builder
	in := New(WithOutput(&sb))
	if _, err := in.Run("(terpri) (print 'x)"); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "\nx\n" {
		t.Errorf("output = %q", sb.String())
	}
}

func TestDefOverwrites(t *testing.T) {
	check(t, `
	  (def f (lambda () 1))
	  (def f (lambda () 2))
	  (f)`, "2")
}

func TestLambdaValueThroughMapcar(t *testing.T) {
	check(t, "(mapcar (lambda (p) (car p)) '((a 1) (b 2)))", "(a b)")
}

func TestWhileReturnsNil(t *testing.T) {
	check(t, "(while nil (error \"never\"))", "nil")
}

func TestNthOutOfRange(t *testing.T) {
	check(t, "(nth 5 '(a b))", "nil")
}

func TestDottedFunctionCallArgs(t *testing.T) {
	// (cons . args) style improper call forms should not crash.
	in := New()
	if _, err := in.Run("(cons 'a . b)"); err == nil {
		// improper arg list silently treated as empty tail: cons arity fails
		t.Log("improper call accepted (arity still enforced elsewhere)")
	}
}

// TestCircularValue: a circular value, as an eval's result or a print
// argument, is an error before anything is printed, and one met in an
// error message prints with "..." where its cycle closes; the
// interpreter stays usable.
func TestCircularValue(t *testing.T) {
	var out strings.Builder
	in := New(WithOutput(&out))
	if _, err := in.Run("(setq x (list 1 2)) (setq y (list 3 4))"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src  string
		want error
	}{
		{"(rplacd (cdr x) x)", sexpr.ErrCircular},
		{"x", sexpr.ErrCircular},
		{"(print 0 x)", sexpr.ErrCircular},
		{"(rplaca y y)", sexpr.ErrTooLarge},
	} {
		if _, err := in.Run(c.src); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.src, err, c.want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("print of a circular list printed %q", out.String())
	}
	if _, err := in.Run("(add1 x)"); err == nil || !strings.Contains(err.Error(), "non-number: (1 2 1 ...)") {
		t.Errorf("(add1 x): %v", err)
	}
	if v, err := in.Run("(list (car x) (cadr x) (car (cddr x)) (cadr y))"); err != nil || sexpr.String(v) != "(1 2 1 4)" {
		t.Errorf("after circular values: %v %v", v, err)
	}
}

// TestCircularListPrimitives: every primitive that walks a list's cdrs
// inside one call, where no step is counted, answers sexpr.ErrCircular
// on a circular list, in time, and the interpreter stays usable; copy
// and subst of a list that is its own car answer sexpr.ErrTooLarge.
func TestCircularListPrimitives(t *testing.T) {
	in := New()
	for _, src := range []string{"(setq x (list 1 2)) (setq y (list 3 4))", "(rplacd (cdr x) x)", "(rplaca y y)"} {
		in.Run(src) // the last two link the lists and answer their errors
	}
	for _, c := range []struct {
		src  string
		want error
	}{
		{"(length x)", sexpr.ErrCircular},
		{"(last x)", sexpr.ErrCircular},
		{"(member 9 x)", sexpr.ErrCircular},
		{"(memq 'z x)", sexpr.ErrCircular},
		{"(assoc 9 x)", sexpr.ErrCircular},
		{"(append x nil)", sexpr.ErrCircular},
		{"(reverse x)", sexpr.ErrCircular},
		{"(nconc x (list 5))", sexpr.ErrCircular},
		{"(copy x)", sexpr.ErrCircular},
		{"(subst 0 9 x)", sexpr.ErrCircular},
		{"(copy y)", sexpr.ErrTooLarge},
		{"(subst 0 9 y)", sexpr.ErrTooLarge},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := in.Run(c.src)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, c.want) {
				t.Errorf("%s: %v, want %v", c.src, err, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10 s", c.src)
		}
	}
	if v, err := in.Run("(list (car x) (cadr x) (car (cddr x)) (length (list 1 2 3)))"); err != nil || sexpr.String(v) != "(1 2 1 3)" {
		t.Errorf("after circular lists: %v %v", v, err)
	}
	// nconc never walks its last argument, so a circular last argument
	// is spliced in, and (nconc z z) makes z circular, as in Lisp.
	for _, c := range []struct{ src, want string }{
		{"(setq w (list 5)) (list (car (nconc w x)) (eq (cdr w) x))", "(5 t)"},
		{"(setq z (list 7 8)) (list (car (nconc z z)) (eq (cddr z) z))", "(7 t)"},
	} {
		if v, err := in.Run(c.src); err != nil || sexpr.String(v) != c.want {
			t.Errorf("%s: %v %v, want %s", c.src, sexpr.String(v), err, c.want)
		}
	}
}
