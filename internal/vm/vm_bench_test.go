package vm_test

import (
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/core"
	"repro/internal/lisp"
	"repro/internal/sexpr"
	"repro/internal/vm"
)

// consIntsSrc conses the integers 0..199 into a list and drops it,
// repeatedly. Every integer escapes into the LP through cons, so the
// loop exercises the escape path: an escaping integer becomes an
// immediate heap word and the steady state allocates nothing; interning
// it instead would box an interface key for the atom-table map on every
// cons.
const consIntsSrc = `
(defun build (i l)
  (cond ((equal i 200) l)
        (t (build (add1 i) (cons i l)))))
(defun spin (n)
  (cond ((zerop n) nil)
        (t (prog ()
             (build 0 nil)
             (return (spin (- n 1)))))))
(spin 20)
`

func consIntsVM(tb testing.TB) (*vm.VM, *core.Machine) {
	prog, err := vm.Compile(consIntsSrc)
	if err != nil {
		tb.Fatal(err)
	}
	m := core.NewMachine(core.Config{LPTSize: 2048})
	v := vm.New(prog, vm.WithMachine(m), vm.WithStepLimit(100_000_000))
	return v, m
}

// TestIntInternSteadyStateAllocs pins the escaping-int fast path:
// re-running an int-consing workload on the same machine must not
// allocate per cons, nor grow the atom table. This is the regression
// guard for immediate integer words — lose them and this test counts
// thousands of allocations.
func TestIntInternSteadyStateAllocs(t *testing.T) {
	v, _ := consIntsVM(t)
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	atoms := v.Machine().Heap().Atoms().Len()
	allocs := testing.AllocsPerRun(5, func() {
		v.ResetSteps()
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if n := v.Machine().Heap().Atoms().Len(); n != atoms {
		t.Errorf("atom table grew from %d to %d entries", atoms, n)
	}
	// 20 spins x 200 escaping conses per run; allow a little slack for
	// the runtime, nothing near per-cons scale.
	if allocs > 16 {
		t.Fatalf("steady-state run allocated %.0f times; int-intern fast path regressed", allocs)
	}
}

// BenchmarkEscapingIntCons tracks the throughput of the escape-heavy
// workload itself.
func BenchmarkEscapingIntCons(b *testing.B) {
	v, _ := consIntsVM(b)
	if _, err := v.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ResetSteps()
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEval times tiny evals on a session loaded with a
// benchprog, on the interpreter and on the VM: the per-eval cost of a
// session backend, compile and link included.
func BenchmarkSessionEval(b *testing.B) {
	prog, _ := benchprogs.ByName("slang")
	load := prog.Gen(1) + "(setq scratch (list 0 1 2 3 4 5 6 7)) (setq counter 0) (def helper (lambda (x) (+ x 1)))"
	evals := []string{"(helper 41)", "(cadr (cddr scratch))", "(setq counter (add1 counter))", "(cons 'k7 (list 1 2))"}
	b.Run("interp", func(b *testing.B) {
		in := lisp.New(lisp.WithStepLimit(5_000_000))
		if _, err := in.Run(load); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := range b.N {
			if _, err := in.Run(evals[i%len(evals)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm", func(b *testing.B) {
		s := vm.NewSession(vm.WithMachine(core.NewMachine(core.Config{})), vm.WithStepLimit(5_000_000))
		if _, err := s.Run(load); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := range b.N {
			if _, err := s.Run(evals[i%len(evals)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBenchprogEval evaluates each whole benchprog at scale 1 from
// a clean context, on the interpreter and on the VM: a fresh
// interpreter over the parsed forms, and a VM and machine recycled with
// Reset over the compiled program. Parsing and compiling are outside
// the loop on both sides; the table is sized as trace generation sizes
// it, so no run pays for pseudo-overflow compression.
func BenchmarkBenchprogEval(b *testing.B) {
	const steps = 200_000_000
	for _, bp := range benchprogs.All() {
		forms, err := sexpr.ParseAll(bp.Gen(1))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := vm.CompileForms(forms)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bp.Name, func(b *testing.B) {
			b.Run("interp", func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					in := lisp.New(lisp.WithStepLimit(steps))
					for _, f := range forms {
						if _, err := in.Eval(f); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run("vm", func(b *testing.B) {
				cfg := core.Config{LPTSize: 1 << 16}
				m := core.NewMachine(cfg)
				v := vm.New(prog, vm.WithMachine(m), vm.WithStepLimit(steps))
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					m.Reset(cfg)
					v.Reset(prog, m)
					if _, err := v.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
