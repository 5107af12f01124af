package vm_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/core"
	"repro/internal/lisp"
	"repro/internal/sexpr"
	"repro/internal/trace"
	"repro/internal/vm"
)

// engineResult captures everything an engine run produces that the two
// engines must agree on: the final value, everything printed, and the
// full trace stream in its canonical text encoding. runInterpreter is
// the reference trace generator; benchprogs.Trace runs on the VM.
type engineResult struct {
	value    string
	output   string
	traceTxt string
}

func traceBytes(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatalf("trace.Write: %v", err)
	}
	return buf.String()
}

func runInterpreter(t *testing.T, name, src string) engineResult {
	t.Helper()
	col := lisp.NewCollector(name)
	var out strings.Builder
	in := lisp.New(lisp.WithTrace(col), lisp.WithOutput(&out),
		lisp.WithStepLimit(200_000_000))
	v, err := in.Run(src)
	if err != nil {
		t.Fatalf("interpreter %s: %v", name, err)
	}
	return engineResult{sexpr.String(v), out.String(), traceBytes(t, &col.T)}
}

func runBytecodeVM(t *testing.T, name, src string, machine *core.Machine) engineResult {
	t.Helper()
	prog, err := vm.Compile(src)
	if err != nil {
		t.Fatalf("vm compile %s: %v", name, err)
	}
	col := lisp.NewCollector(name)
	var out strings.Builder
	v := vm.New(prog, vm.WithMachine(machine), vm.WithTrace(col),
		vm.WithOutput(&out), vm.WithStepLimit(200_000_000))
	sv, err := v.Run()
	if err != nil {
		t.Fatalf("vm run %s: %v", name, err)
	}
	return engineResult{sexpr.String(sv), out.String(), traceBytes(t, &col.T)}
}

// TestDifferentialBenchprogs runs every benchmark program, at scale 1
// and at the experiments' default scale 2, on the tree-walking
// interpreter and on the bytecode VM and demands identical final
// values, identical printed output, and byte-identical trace streams —
// the property that lets the VM be the one trace engine: it also checks
// benchprogs.Trace, which generates on the VM, against the interpreter.
func TestDifferentialBenchprogs(t *testing.T) {
	for _, b := range benchprogs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, scale := range []int{1, 2} {
				src := b.Gen(scale)
				want := runInterpreter(t, b.Name, src)
				m := core.NewMachine(core.Config{LPTSize: 1 << 15})
				got := runBytecodeVM(t, b.Name, src, m)
				if got.value != want.value {
					t.Errorf("scale %d value mismatch:\n  interp: %s\n  vm:     %s", scale, want.value, got.value)
				}
				if got.output != want.output {
					t.Errorf("scale %d output mismatch:\n  interp: %q\n  vm:     %q", scale, want.output, got.output)
				}
				if got.traceTxt != want.traceTxt {
					t.Errorf("scale %d trace mismatch (%d vs %d bytes): %s", scale,
						len(want.traceTxt), len(got.traceTxt), firstDiff(want.traceTxt, got.traceTxt))
				}
				tr, err := benchprogs.Trace(b, scale)
				if err != nil {
					t.Fatal(err)
				}
				if txt := traceBytes(t, tr); txt != want.traceTxt {
					t.Errorf("scale %d benchprogs.Trace differs from the interpreter: %s", scale, firstDiff(want.traceTxt, txt))
				}
			}
		})
	}
}

// TestDifferentialPooledReset reruns each benchmark on a pooled
// machine+VM pair recycled with Reset and demands results, traces and
// the machine's LPT counter deltas all match a fresh run: the
// interpreter side of the differential has no LPT, so determinism of
// the machine counters across pooled reuse is the counter half of the
// equivalence (and what the server backend and BenchmarkBenchprogEval
// rely on).
func TestDifferentialPooledReset(t *testing.T) {
	pooledM := core.NewMachine(core.Config{LPTSize: 1 << 15})
	pooledVM := vm.New(&vm.Program{}, vm.WithMachine(pooledM))
	for _, b := range benchprogs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Gen(1)
			freshM := core.NewMachine(core.Config{LPTSize: 1 << 15})
			fresh := runBytecodeVM(t, b.Name, src, freshM)
			freshStats := freshM.Stats()

			prog, err := vm.Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			pooledM.Reset(core.Config{LPTSize: 1 << 15})
			pooledVM.Reset(prog, pooledM)
			col := lisp.NewCollector(b.Name)
			var out strings.Builder
			pooledVM.SetTrace(col)
			pooledVM.SetOutput(&out)
			pooledVM.SetStepLimit(200_000_000)
			sv, err := pooledVM.Run()
			if err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			if got := sexpr.String(sv); got != fresh.value {
				t.Errorf("pooled value %s, fresh %s", got, fresh.value)
			}
			if out.String() != fresh.output {
				t.Errorf("pooled output %q, fresh %q", out.String(), fresh.output)
			}
			if tb := traceBytes(t, &col.T); tb != fresh.traceTxt {
				t.Errorf("pooled trace differs from fresh: %s", firstDiff(fresh.traceTxt, tb))
			}
			got := pooledM.Stats()
			if got != freshStats {
				t.Errorf("machine counter deltas differ:\n  fresh:  %+v\n  pooled: %+v", freshStats, got)
			}
		})
	}
}

func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			return "first divergence at byte " + itoa(i) +
				":\n  interp: …" + snippet(a, lo, i) + "\n  vm:     …" + snippet(b, lo, i)
		}
	}
	return "one stream is a prefix of the other"
}

func snippet(s string, lo, at int) string {
	hi := at + 120
	if hi > len(s) {
		hi = len(s)
	}
	return strings.ReplaceAll(s[lo:hi], "\n", "\\n")
}

func itoa(i int) string {
	return sexpr.String(sexpr.Int(i))
}
