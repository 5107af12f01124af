package vm

import (
	"context"

	"repro/internal/core"
	"repro/internal/sexpr"
)

// Session is a persistent evaluation context over the bytecode VM,
// mirroring the smalllisp.Interp surface the server's session layer
// expects: repeated Run calls share one SMALL machine, one set of
// global bindings and property lists, and one linked program.
//
// Each def compiles once into the program's code segment; the rest of a
// Run's forms compile into top-level code that the next Run replaces.
// Forms take effect in source order, as in the interpreter: a run of
// consecutive defs is bound by one OpLink where it stands, so a form
// before a def still calls the old binding. Code that redefinitions left
// dead is compacted away once it outgrows the live code.
type Session struct {
	v *VM
	l *linker
	// avail names the functions the running batch binds before the
	// position being compiled (see needsGuard).
	avail map[string]bool
}

// NewSession builds a session; opts configure the underlying VM
// (machine, output, step limit).
func NewSession(opts ...Option) *Session {
	l := newLinker()
	s := &Session{v: New(l.prog, opts...), l: l, avail: make(map[string]bool)}
	s.v.ln = l
	return s
}

// Run evaluates src and returns the value of its last form: a def's
// value is its name. A parse or compile error leaves the session as it
// was; a run-time error keeps the effects of the forms before it.
func (s *Session) Run(src string) (sexpr.Value, error) {
	forms, err := sexpr.ParseAll(src)
	if err != nil {
		return nil, err
	}
	mark := len(s.l.prog.Code)
	top, err := s.compile(forms)
	if err != nil {
		s.l.truncate(mark)
		s.l.groups = s.l.groups[:0]
		return nil, err
	}
	s.l.prog.Entry = s.l.add(top)
	s.v.codeChanged(mark)
	val, err := s.v.Run()
	s.finish()
	return val, err
}

// compile places the batch's function bodies in the code segment and
// compiles its top-level code, where each run of consecutive defs
// becomes one OpLink.
func (s *Session) compile(forms []sexpr.Value) ([]Instr, error) {
	clear(s.avail)
	top := newTopCompiler(s.needsGuard)
	for i := 0; i < len(forms); {
		if !isDef(forms[i]) {
			if err := top.form(forms[i]); err != nil {
				return nil, err
			}
			i++
			continue
		}
		j := i
		for j < len(forms) && isDef(forms[j]) {
			name, err := defName(forms[j])
			if err != nil {
				return nil, err
			}
			s.avail[string(name)] = true
			j++
		}
		group := make([]*FuncInfo, 0, j-i)
		for _, f := range forms[i:j] {
			name, nargs, code, err := compileDef(f, s.needsGuard)
			if err != nil {
				return nil, err
			}
			group = append(group, s.l.place(name, nargs, code))
		}
		top.emit(Instr{Op: OpLink, Arg: int64(len(s.l.groups)), Sym: group[len(group)-1].Name})
		s.l.groups = append(s.l.groups, group)
		i = j
	}
	return top.finish()
}

// needsGuard reports whether a call of name, compiled at the current
// position of the batch, can run while name is undefined. A function,
// once bound, stays bound; and one the batch defines before this
// position (in this def group or an earlier one) is bound before any
// code at this position runs.
func (s *Session) needsGuard(name string) bool {
	_, bound := s.l.prog.Funcs[name]
	return !bound && !s.avail[name]
}

// finish drops the batch's top-level code, and compacts the function
// bodies once the dead ones outnumber the live. A compaction costs time
// in proportion to the code it keeps, which is less than the dead code
// the definitions since the last one appended.
func (s *Session) finish() {
	tail := s.l.prog.Entry
	s.l.truncate(tail)
	s.l.groups = s.l.groups[:0]
	if s.l.dead() > s.l.live {
		s.l.compact()
		s.v.codeChanged(0)
		return
	}
	s.l.prog.Entry = len(s.l.prog.Code)
	s.v.codeChanged(tail)
}

// Machine exposes the session's SMALL machine (live LPT stats).
func (s *Session) Machine() *core.Machine { return s.v.Machine() }

// SetStepLimit adjusts the per-eval budget (n <= 0: unlimited).
func (s *Session) SetStepLimit(n int64) { s.v.SetStepLimit(n) }

// ResetSteps starts a fresh budget window.
func (s *Session) ResetSteps() { s.v.ResetSteps() }

// Steps returns steps executed since the last ResetSteps.
func (s *Session) Steps() int64 { return s.v.Steps() }

// SetContext installs (or, with nil, removes) a cancellation context.
func (s *Session) SetContext(ctx context.Context) { s.v.SetContext(ctx) }
