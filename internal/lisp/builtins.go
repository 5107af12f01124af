package lisp

import (
	"fmt"
	"regexp"
	"slices"
	"sync"

	"repro/internal/sexpr"
)

// primitive is a built-in function. If traced is set, the interpreter
// reports each call to the trace sink (these are the list primitives of
// Fig 3.1). Library functions built from car/cdr/cons (append, member,
// reverse, ...) are untraced at the top level; instead their internal
// car/cdr/cons steps are traced individually, which is what an interpreted
// Lisp library would have produced in the thesis's setup.
type primitive struct {
	fn     func(in *Interp, args []sexpr.Value) (sexpr.Value, error)
	traced bool
}

// Traced list-primitive helpers. These always emit trace events; the
// library functions below are built from them.

func (in *Interp) carT(v sexpr.Value) sexpr.Value {
	r := sexpr.Car(v)
	in.tracePrim("car", []sexpr.Value{v}, r)
	return r
}

func (in *Interp) cdrT(v sexpr.Value) sexpr.Value {
	r := sexpr.Cdr(v)
	in.tracePrim("cdr", []sexpr.Value{v}, r)
	return r
}

func (in *Interp) consT(a, b sexpr.Value) sexpr.Value {
	r := sexpr.Cons(a, b)
	in.tracePrim("cons", []sexpr.Value{a, b}, r)
	return r
}

func (in *Interp) rplacaT(c *sexpr.Cell, v sexpr.Value) sexpr.Value {
	c.Car = v
	in.tracePrim("rplaca", []sexpr.Value{c, v}, c)
	return c
}

func (in *Interp) rplacdT(c *sexpr.Cell, v sexpr.Value) sexpr.Value {
	c.Cdr = v
	in.tracePrim("rplacd", []sexpr.Value{c, v}, c)
	return c
}

var cxrPattern = regexp.MustCompile(`^c([ad]{2,4})r$`)

// builtinNames holds the special forms and primitives of a stock
// interpreter.
var builtinNames = sync.OnceValue(func() map[sexpr.Symbol]bool {
	in := New()
	names := make(map[sexpr.Symbol]bool, len(in.specs)+len(in.prims))
	for n := range in.specs {
		names[n] = true
	}
	for n := range in.prims {
		names[n] = true
	}
	return names
})

// IsBuiltin reports whether a stock interpreter evaluates a call of name
// itself, as a special form, a primitive or a composite accessor
// (cadr .. cddddr). It never calls a user function of such a name.
func IsBuiltin(name sexpr.Symbol) bool {
	return builtinNames()[name] || cxrPattern.MatchString(string(name))
}

// Builtins returns the special forms and primitives of a stock
// interpreter, sorted; IsBuiltin also accepts the composite accessors.
func Builtins() []sexpr.Symbol {
	out := make([]sexpr.Symbol, 0, len(builtinNames()))
	for n := range builtinNames() {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func (in *Interp) installPrims() {
	p := func(traced bool, fn func(*Interp, []sexpr.Value) (sexpr.Value, error)) primitive {
		return primitive{fn: fn, traced: traced}
	}
	in.prims = map[sexpr.Symbol]primitive{
		// --- traced list primitives ---
		"car": p(true, func(in *Interp, a []sexpr.Value) (sexpr.Value, error) {
			v, err := must1("car", a)
			if err != nil {
				return nil, err
			}
			return sexpr.Car(v), nil
		}),
		"cdr": p(true, func(in *Interp, a []sexpr.Value) (sexpr.Value, error) {
			v, err := must1("cdr", a)
			if err != nil {
				return nil, err
			}
			return sexpr.Cdr(v), nil
		}),
		"cons": p(true, func(in *Interp, a []sexpr.Value) (sexpr.Value, error) {
			x, y, err := must2("cons", a)
			if err != nil {
				return nil, err
			}
			return sexpr.Cons(x, y), nil
		}),
		"rplaca": p(true, func(in *Interp, a []sexpr.Value) (sexpr.Value, error) {
			x, y, err := must2("rplaca", a)
			if err != nil {
				return nil, err
			}
			c, ok := x.(*sexpr.Cell)
			if !ok {
				return nil, errf(x, "rplaca of non-cell")
			}
			c.Car = y
			return c, nil
		}),
		"rplacd": p(true, func(in *Interp, a []sexpr.Value) (sexpr.Value, error) {
			x, y, err := must2("rplacd", a)
			if err != nil {
				return nil, err
			}
			c, ok := x.(*sexpr.Cell)
			if !ok {
				return nil, errf(x, "rplacd of non-cell")
			}
			c.Cdr = y
			return c, nil
		}),

		// --- library list functions, built from traced helpers ---
		"list":    p(false, primList),
		"append":  p(false, primAppend),
		"reverse": p(false, primReverse),
		"nconc":   p(false, primNconc),
		"member":  p(false, primMember),
		"memq":    p(false, primMemq),
		"assoc":   p(false, primAssoc),
		"length":  p(false, primLength),
		"last":    p(false, primLast),
		"nth":     p(false, primNth),
		"copy":    p(false, primCopy),
		"subst":   p(false, primSubst),
		"mapcar":  p(false, primMapcar),
		"apply":   p(false, primApply),
		"funcall": p(false, primFuncall),

		// --- predicates ---
		"atom":    p(false, pred1(sexpr.IsAtom)),
		"null":    p(false, pred1(func(v sexpr.Value) bool { return v == nil })),
		"not":     p(false, pred1(func(v sexpr.Value) bool { return v == nil })),
		"listp":   p(false, pred1(sexpr.IsList)),
		"symbolp": p(false, pred1(func(v sexpr.Value) bool { _, ok := v.(sexpr.Symbol); return ok })),
		"numberp": p(false, pred1(isNumber)),
		"zerop":   p(false, numPred(func(f float64) bool { return f == 0 })),
		"minusp":  p(false, numPred(func(f float64) bool { return f < 0 })),
		"eq":      p(false, pred2(sexpr.Eq)),
		"equal":   p(false, pred2(sexpr.Equal)),
		"neq":     p(false, pred2(func(a, b sexpr.Value) bool { return !sexpr.Eq(a, b) })),

		// --- arithmetic ---
		"+":         p(false, arithFold("+", func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })),
		"-":         p(false, arithFold("-", func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b })),
		"*":         p(false, arithFold("*", func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })),
		"add":       p(false, arithFold("add", func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })),
		"subtract":  p(false, arithFold("subtract", func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b })),
		"times":     p(false, arithFold("times", func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })),
		"/":         p(false, primDivide),
		"quotient":  p(false, primDivide),
		"remainder": p(false, primRemainder),
		"mod":       p(false, primRemainder),
		"add1":      p(false, primAdd1),
		"sub1":      p(false, primSub1),
		"min":       p(false, cmpFold("min", func(a, b float64) bool { return a < b })),
		"max":       p(false, cmpFold("max", func(a, b float64) bool { return a > b })),
		"abs":       p(false, primAbs),
		"=":         p(false, numRel(func(a, b float64) bool { return a == b })),
		"greaterp":  p(false, numRel(func(a, b float64) bool { return a > b })),
		"lessp":     p(false, numRel(func(a, b float64) bool { return a < b })),
		">":         p(false, numRel(func(a, b float64) bool { return a > b })),
		"<":         p(false, numRel(func(a, b float64) bool { return a < b })),
		">=":        p(false, numRel(func(a, b float64) bool { return a >= b })),
		"<=":        p(false, numRel(func(a, b float64) bool { return a <= b })),

		// --- io and misc ---
		"print":   p(false, primPrint),
		"terpri":  p(false, primTerpri),
		"read":    p(false, primRead),
		"gensym":  p(false, primGensym),
		"get":     p(false, primGet),
		"putprop": p(false, primPutprop),
		"set":     p(false, primSet),
		"error":   p(false, primError),
	}
}

// cxr resolves composite access functions like cadr, cdar, caddr into a
// chain of traced car/cdr calls, which is exactly how they hit the trace
// in an interpreted Lisp and the source of the function chaining measured
// in Table 3.2.
func (in *Interp) cxr(ops string, v sexpr.Value) sexpr.Value {
	// ops is the letters between c and r; apply right to left.
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i] == 'a' {
			v = in.carT(v)
		} else {
			v = in.cdrT(v)
		}
	}
	return v
}

func primList(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	var out sexpr.Value
	for i := len(args) - 1; i >= 0; i-- {
		out = in.consT(args[i], out)
	}
	return out, nil
}

// primAppend copies every list but the last, as Lisp append does. Each
// element access and cons is traced.
func primAppend(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	var head, tail *sexpr.Cell
	push := func(v sexpr.Value) {
		c := in.consT(v, nil).(*sexpr.Cell)
		if tail == nil {
			head, tail = c, c
		} else {
			tail.Cdr = c
			tail = c
		}
	}
	for _, a := range args[:len(args)-1] {
		for v := a; ; {
			if _, ok := v.(*sexpr.Cell); !ok {
				break
			}
			push(in.carT(v))
			v = in.cdrT(v)
		}
	}
	lastArg := args[len(args)-1]
	if tail == nil {
		return lastArg, nil
	}
	tail.Cdr = lastArg
	return head, nil
}

func primReverse(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	v, err := must1("reverse", args)
	if err != nil {
		return nil, err
	}
	var out sexpr.Value
	for {
		if _, ok := v.(*sexpr.Cell); !ok {
			return out, nil
		}
		out = in.consT(in.carT(v), out)
		v = in.cdrT(v)
	}
}

func primNconc(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	var head sexpr.Value
	var tail *sexpr.Cell
	for _, a := range args {
		if a == nil {
			continue
		}
		if head == nil {
			head = a
		} else if tail != nil {
			in.rplacdT(tail, a)
		}
		// find last cell of a
		c, ok := a.(*sexpr.Cell)
		if !ok {
			continue
		}
		for {
			next, ok := c.Cdr.(*sexpr.Cell)
			if !ok {
				break
			}
			in.cdrT(c)
			c = next
		}
		tail = c
	}
	return head, nil
}

func primMember(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	x, l, err := must2("member", args)
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := l.(*sexpr.Cell); !ok {
			return nil, nil
		}
		if sexpr.Equal(in.carT(l), x) {
			return l, nil
		}
		l = in.cdrT(l)
	}
}

func primMemq(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	x, l, err := must2("memq", args)
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := l.(*sexpr.Cell); !ok {
			return nil, nil
		}
		if sexpr.Eq(in.carT(l), x) {
			return l, nil
		}
		l = in.cdrT(l)
	}
}

func primAssoc(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	x, l, err := must2("assoc", args)
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := l.(*sexpr.Cell); !ok {
			return nil, nil
		}
		pair := in.carT(l)
		if sexpr.Equal(in.carT(pair), x) {
			return pair, nil
		}
		l = in.cdrT(l)
	}
}

func primLength(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	v, err := must1("length", args)
	if err != nil {
		return nil, err
	}
	n := 0
	for {
		if _, ok := v.(*sexpr.Cell); !ok {
			return sexpr.Int(n), nil
		}
		n++
		v = in.cdrT(v)
	}
}

func primLast(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	v, err := must1("last", args)
	if err != nil {
		return nil, err
	}
	c, ok := v.(*sexpr.Cell)
	if !ok {
		return nil, nil
	}
	for {
		next, ok := c.Cdr.(*sexpr.Cell)
		if !ok {
			return c, nil
		}
		in.cdrT(c)
		c = next
	}
}

func primNth(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	nv, l, err := must2("nth", args)
	if err != nil {
		return nil, err
	}
	n, ok := nv.(sexpr.Int)
	if !ok {
		return nil, errf(nv, "nth wants an integer")
	}
	for i := sexpr.Int(0); i < n; i++ {
		l = in.cdrT(l)
	}
	return in.carT(l), nil
}

func primCopy(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	v, err := must1("copy", args)
	if err != nil {
		return nil, err
	}
	var cp func(v sexpr.Value) sexpr.Value
	cp = func(v sexpr.Value) sexpr.Value {
		if _, ok := v.(*sexpr.Cell); !ok {
			return v
		}
		car := cp(in.carT(v))
		cdr := cp(in.cdrT(v))
		return in.consT(car, cdr)
	}
	return cp(v), nil
}

func primSubst(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	if len(args) != 3 {
		return nil, errf(nil, "subst wants 3 args")
	}
	new, old, tree := args[0], args[1], args[2]
	var walk func(v sexpr.Value) sexpr.Value
	walk = func(v sexpr.Value) sexpr.Value {
		if sexpr.Equal(v, old) {
			return new
		}
		if _, ok := v.(*sexpr.Cell); !ok {
			return v
		}
		car := walk(in.carT(v))
		cdr := walk(in.cdrT(v))
		return in.consT(car, cdr)
	}
	return walk(tree), nil
}

// applyValue applies a function value: a symbol naming a function or
// primitive, or a (lambda ...) list.
func (in *Interp) applyValue(fnVal sexpr.Value, args []sexpr.Value) (sexpr.Value, error) {
	switch f := fnVal.(type) {
	case sexpr.Symbol:
		return in.Apply(f, args)
	case *sexpr.Cell:
		if f.Car == sexpr.Symbol("lambda") {
			fn, err := in.parseLambda(sexpr.Symbol("<lambda>"), f, Expr)
			if err != nil {
				return nil, err
			}
			return in.applyUser(fn, args)
		}
	}
	return nil, errf(fnVal, "not a function")
}

func primMapcar(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	if len(args) < 2 {
		return nil, errf(nil, "mapcar wants a function and lists")
	}
	fn := args[0]
	lists := append([]sexpr.Value(nil), args[1:]...)
	var head, tail *sexpr.Cell
	for {
		call := make([]sexpr.Value, len(lists))
		for i, l := range lists {
			if _, ok := l.(*sexpr.Cell); !ok {
				if head == nil {
					return nil, nil
				}
				return head, nil
			}
			call[i] = in.carT(l)
			lists[i] = in.cdrT(l)
		}
		v, err := in.applyValue(fn, call)
		if err != nil {
			return nil, err
		}
		c := in.consT(v, nil).(*sexpr.Cell)
		if tail == nil {
			head, tail = c, c
		} else {
			tail.Cdr = c
			tail = c
		}
	}
}

func primApply(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	fn, arglist, err := must2("apply", args)
	if err != nil {
		return nil, err
	}
	var call []sexpr.Value
	for {
		c, ok := arglist.(*sexpr.Cell)
		if !ok {
			break
		}
		call = append(call, c.Car)
		arglist = c.Cdr
	}
	return in.applyValue(fn, call)
}

func primFuncall(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	if len(args) < 1 {
		return nil, errf(nil, "funcall wants a function")
	}
	return in.applyValue(args[0], args[1:])
}

func pred1(f func(sexpr.Value) bool) func(*Interp, []sexpr.Value) (sexpr.Value, error) {
	return func(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
		v, err := must1("predicate", args)
		if err != nil {
			return nil, err
		}
		if f(v) {
			return sexpr.Symbol("t"), nil
		}
		return nil, nil
	}
}

func pred2(f func(a, b sexpr.Value) bool) func(*Interp, []sexpr.Value) (sexpr.Value, error) {
	return func(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
		a, b, err := must2("predicate", args)
		if err != nil {
			return nil, err
		}
		if f(a, b) {
			return sexpr.Symbol("t"), nil
		}
		return nil, nil
	}
}

func isNumber(v sexpr.Value) bool {
	switch v.(type) {
	case sexpr.Int, sexpr.Float:
		return true
	}
	return false
}

func toFloat(v sexpr.Value) (float64, bool) {
	switch n := v.(type) {
	case sexpr.Int:
		return float64(n), true
	case sexpr.Float:
		return float64(n), true
	}
	return 0, false
}

func numPred(f func(float64) bool) func(*Interp, []sexpr.Value) (sexpr.Value, error) {
	return func(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
		v, err := must1("predicate", args)
		if err != nil {
			return nil, err
		}
		x, ok := toFloat(v)
		if !ok {
			return nil, errf(v, "not a number")
		}
		if f(x) {
			return sexpr.Symbol("t"), nil
		}
		return nil, nil
	}
}

func numRel(f func(a, b float64) bool) func(*Interp, []sexpr.Value) (sexpr.Value, error) {
	return func(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
		a, b, err := must2("relation", args)
		if err != nil {
			return nil, err
		}
		x, ok := toFloat(a)
		y, ok2 := toFloat(b)
		if !ok || !ok2 {
			return nil, errf(a, "relation of non-numbers")
		}
		if f(x, y) {
			return sexpr.Symbol("t"), nil
		}
		return nil, nil
	}
}

// arithFold folds an integer/float operation left to right. With one
// argument, "-" negates.
func arithFold(name string, fi func(a, b int64) int64, ff func(a, b float64) float64) func(*Interp, []sexpr.Value) (sexpr.Value, error) {
	return func(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
		if len(args) == 0 {
			return nil, errf(nil, "%s wants arguments", name)
		}
		if name == "-" && len(args) == 1 {
			args = []sexpr.Value{sexpr.Int(0), args[0]}
		}
		acc := args[0]
		if !isNumber(acc) {
			return nil, errf(acc, "%s of non-number", name)
		}
		for _, a := range args[1:] {
			if !isNumber(a) {
				return nil, errf(a, "%s of non-number", name)
			}
			ai, aIsInt := acc.(sexpr.Int)
			bi, bIsInt := a.(sexpr.Int)
			if aIsInt && bIsInt {
				acc = sexpr.Int(fi(int64(ai), int64(bi)))
			} else {
				x, _ := toFloat(acc)
				y, _ := toFloat(a)
				acc = sexpr.Float(ff(x, y))
			}
		}
		return acc, nil
	}
}

func cmpFold(name string, better func(a, b float64) bool) func(*Interp, []sexpr.Value) (sexpr.Value, error) {
	return func(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
		if len(args) == 0 {
			return nil, errf(nil, "%s wants arguments", name)
		}
		best := args[0]
		bx, ok := toFloat(best)
		if !ok {
			return nil, errf(best, "%s of non-number", name)
		}
		for _, a := range args[1:] {
			x, ok := toFloat(a)
			if !ok {
				return nil, errf(a, "%s of non-number", name)
			}
			if better(x, bx) {
				best, bx = a, x
			}
		}
		return best, nil
	}
}

func primDivide(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	a, b, err := must2("quotient", args)
	if err != nil {
		return nil, err
	}
	ai, aInt := a.(sexpr.Int)
	bi, bInt := b.(sexpr.Int)
	if aInt && bInt {
		if bi == 0 {
			return nil, errf(nil, "division by zero")
		}
		return sexpr.Int(int64(ai) / int64(bi)), nil
	}
	x, ok := toFloat(a)
	y, ok2 := toFloat(b)
	if !ok || !ok2 {
		return nil, errf(a, "quotient of non-numbers")
	}
	if y == 0 {
		return nil, errf(nil, "division by zero")
	}
	return sexpr.Float(x / y), nil
}

func primRemainder(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	a, b, err := must2("remainder", args)
	if err != nil {
		return nil, err
	}
	ai, aInt := a.(sexpr.Int)
	bi, bInt := b.(sexpr.Int)
	if !aInt || !bInt {
		return nil, errf(a, "remainder wants integers")
	}
	if bi == 0 {
		return nil, errf(nil, "division by zero")
	}
	return sexpr.Int(int64(ai) % int64(bi)), nil
}

func primAdd1(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	v, err := must1("add1", args)
	if err != nil {
		return nil, err
	}
	if i, ok := v.(sexpr.Int); ok {
		return i + 1, nil
	}
	if f, ok := v.(sexpr.Float); ok {
		return f + 1, nil
	}
	return nil, errf(v, "add1 of non-number")
}

func primSub1(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	v, err := must1("sub1", args)
	if err != nil {
		return nil, err
	}
	if i, ok := v.(sexpr.Int); ok {
		return i - 1, nil
	}
	if f, ok := v.(sexpr.Float); ok {
		return f - 1, nil
	}
	return nil, errf(v, "sub1 of non-number")
}

func primAbs(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	v, err := must1("abs", args)
	if err != nil {
		return nil, err
	}
	switch n := v.(type) {
	case sexpr.Int:
		if n < 0 {
			return -n, nil
		}
		return n, nil
	case sexpr.Float:
		if n < 0 {
			return -n, nil
		}
		return n, nil
	}
	return nil, errf(v, "abs of non-number")
}

func primPrint(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	for i, a := range args {
		if i > 0 {
			fmt.Fprint(in.out, " ")
		}
		fmt.Fprint(in.out, sexpr.String(a))
	}
	fmt.Fprintln(in.out)
	if len(args) > 0 {
		return args[len(args)-1], nil
	}
	return nil, nil
}

func primTerpri(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	fmt.Fprintln(in.out)
	return nil, nil
}

func primRead(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	if len(in.input) == 0 {
		return nil, nil
	}
	v := in.input[0]
	in.input = in.input[1:]
	in.tracePrim("read", nil, v)
	return v, nil
}

func primGensym(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	in.gensym++
	return sexpr.Symbol(fmt.Sprintf("g%04d", in.gensym)), nil
}

func primGet(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	sym, prop, err := must2("get", args)
	if err != nil {
		return nil, err
	}
	s, ok := sym.(sexpr.Symbol)
	p, ok2 := prop.(sexpr.Symbol)
	if !ok || !ok2 {
		return nil, errf(sym, "get wants symbols")
	}
	return in.props[s][p], nil
}

func primPutprop(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	if len(args) != 3 {
		return nil, errf(nil, "putprop wants 3 args")
	}
	s, ok := args[0].(sexpr.Symbol)
	p, ok2 := args[2].(sexpr.Symbol)
	if !ok || !ok2 {
		return nil, errf(args[0], "putprop wants symbols")
	}
	if in.props[s] == nil {
		in.props[s] = make(map[sexpr.Symbol]sexpr.Value)
	}
	in.props[s][p] = args[1]
	return args[1], nil
}

func primSet(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	sym, v, err := must2("set", args)
	if err != nil {
		return nil, err
	}
	s, ok := sym.(sexpr.Symbol)
	if !ok {
		return nil, errf(sym, "set of non-symbol")
	}
	in.env.Set(s, v)
	return v, nil
}

func primError(in *Interp, args []sexpr.Value) (sexpr.Value, error) {
	msg := "error"
	if len(args) > 0 {
		msg = sexpr.String(args[0])
	}
	return nil, errf(nil, "%s", msg)
}
