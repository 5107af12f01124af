package vm

import "sort"

// linker places separately compiled units in one append-only code
// segment and keeps every call site pointing at the current binding of
// its callee. A function body compiles once; binding it, or a later
// binding of the same name, repoints the call sites that name it, so
// nothing is recompiled when a definition changes. A call of a function
// that is not bound is linked to the undefined-function stub, and a call
// with the wrong number of arguments to the arity stub.
type linker struct {
	prog *Program
	// sites lists, per callee, the pcs of the FCALLs that name it, in
	// ascending order: units are only ever appended.
	sites map[string][]int
	// live counts the instructions of bound function bodies; everything
	// else between the stubs and the top-level code is dead.
	live int
	// groups holds the running batch's def groups, which its OpLink
	// instructions bind.
	groups [][]*FuncInfo
}

func newLinker() *linker {
	return &linker{
		prog: &Program{
			Code:  []Instr{pcUndef: {Op: OpUndef}, pcArity: {Op: OpArity}},
			Funcs: make(map[string]*FuncInfo),
		},
		sites: make(map[string][]int),
	}
}

// add appends a unit's code, relocating its jumps and linking its
// calls, and returns the pc of its first instruction.
func (l *linker) add(code []Instr) int {
	base := len(l.prog.Code)
	l.prog.Code = append(l.prog.Code, code...)
	shiftJumps(l.prog.Code[base:], base)
	l.linkCalls(base)
	return base
}

// shiftJumps moves the unit-relative jump targets in code by delta.
func shiftJumps(code []Instr, delta int) {
	for i := range code {
		switch code[i].Op {
		case OpJump, OpBrNil, OpNEqualP:
			code[i].Target += int32(delta)
		}
	}
}

// linkCalls records the call sites from pc from on and points each at
// its callee's current binding.
func (l *linker) linkCalls(from int) {
	code := l.prog.Code
	for pc := from; pc < len(code); pc++ {
		if ins := &code[pc]; ins.Op == OpFCall {
			l.sites[ins.Sym] = append(l.sites[ins.Sym], pc)
			ins.Target = l.resolve(ins.Sym, ins.Arg)
		}
	}
}

// place appends a function body without binding it.
func (l *linker) place(name string, nargs int, code []Instr) *FuncInfo {
	entry := l.add(code)
	return &FuncInfo{Name: name, NArgs: nargs, Entry: entry, End: len(l.prog.Code)}
}

// resolve returns the target for a call of name with nargs arguments.
func (l *linker) resolve(name string, nargs int64) int32 {
	f, ok := l.prog.Funcs[name]
	switch {
	case !ok:
		return pcUndef
	case int64(f.NArgs) != nargs:
		return pcArity
	}
	return int32(f.Entry)
}

// bind makes f the binding of its name and repoints the name's calls.
func (l *linker) bind(f *FuncInfo) {
	if old, ok := l.prog.Funcs[f.Name]; ok {
		l.live -= old.End - old.Entry
	}
	l.prog.Funcs[f.Name] = f
	l.live += f.End - f.Entry
	for _, pc := range l.sites[f.Name] {
		l.prog.Code[pc].Target = l.resolve(f.Name, l.prog.Code[pc].Arg)
	}
}

// firstUndefined returns the first callee, in code order, that is not
// bound.
func (l *linker) firstUndefined() (string, bool) {
	for _, ins := range l.prog.Code {
		if ins.Op == OpFCall && ins.Target == pcUndef {
			return ins.Sym, true
		}
	}
	return "", false
}

// truncate drops the code from pc on, with the call sites in it, and
// releases storage the dropped code leaves oversized. A callee left
// without sites leaves the directory.
func (l *linker) truncate(pc int) {
	for _, ins := range l.prog.Code[pc:] {
		if ins.Op == OpFCall {
			s := l.sites[ins.Sym]
			for len(s) > 0 && s[len(s)-1] >= pc {
				s = s[:len(s)-1]
			}
			if len(s) == 0 {
				delete(l.sites, ins.Sym)
			} else {
				l.sites[ins.Sym] = s
			}
		}
	}
	clear(l.prog.Code[pc:])
	l.prog.Code = trim(l.prog.Code[:pc])
}

// trim returns s, moved to storage twice its length when it has more
// than four times its length: a batch much larger than the code it
// leaves behind does not keep its storage, and a batch no larger than
// that code reuses it.
func trim[T any](s []T) []T {
	if cap(s) <= 4*len(s) {
		return s
	}
	return append(make([]T, 0, 2*len(s)), s...)
}

// dead returns, between batches, the instructions that no bound
// function owns: bodies replaced by a redefinition, and bodies of defs a
// failed batch never reached.
func (l *linker) dead() int { return len(l.prog.Code) - nStubs - l.live }

// compact moves the bound function bodies together, in address order,
// into freshly sized storage and relinks every call. It runs between
// batches, when the code holds no top-level code.
func (l *linker) compact() {
	fs := make([]*FuncInfo, 0, len(l.prog.Funcs))
	for _, f := range l.prog.Funcs {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Entry < fs[j].Entry })
	old := l.prog.Code
	code := make([]Instr, nStubs, 2*(nStubs+l.live))
	copy(code, old)
	for _, f := range fs {
		start := len(code)
		code = append(code, old[f.Entry:f.End]...)
		shiftJumps(code[start:], start-f.Entry)
		f.Entry, f.End = start, len(code)
	}
	l.prog.Code = code
	l.prog.Entry = len(code)
	l.sites = make(map[string][]int, len(l.sites))
	l.linkCalls(nStubs)
}
