// Package repro_test is the benchmark harness: one testing.B benchmark
// per table and figure of the thesis's evaluation (regenerating the data
// through internal/experiments), plus ablation benches for the design
// choices DESIGN.md calls out. Key shape metrics are attached with
// b.ReportMetric so `go test -bench=.` doubles as a reproduction check.
package repro_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/benchprogs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/lisp"
	"repro/internal/multilisp"
	"repro/internal/parsweep"
	"repro/internal/sexpr"
	"repro/internal/sim"
	"repro/internal/trace"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

// sharedRunner caches benchmark traces across benches (scale 1 keeps
// -bench=. fast; cmd/experiments defaults to scale 2).
func sharedRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		runner = experiments.NewRunner(experiments.Config{Scale: 1, Seeds: 8})
	})
	return runner
}

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	r := sharedRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 3: one bench per figure/table ---

func BenchmarkFig3_1(b *testing.B)      { benchExperiment(b, "fig3.1") }
func BenchmarkTable3_1(b *testing.B)    { benchExperiment(b, "table3.1") }
func BenchmarkFig3_3(b *testing.B)      { benchExperiment(b, "fig3.3") }
func BenchmarkFig3_4(b *testing.B)      { benchExperiment(b, "fig3.4") }
func BenchmarkFig3_5(b *testing.B)      { benchExperiment(b, "fig3.5") }
func BenchmarkFig3_6(b *testing.B)      { benchExperiment(b, "fig3.6") }
func BenchmarkFig3_7(b *testing.B)      { benchExperiment(b, "fig3.7") }
func BenchmarkTable3_2(b *testing.B)    { benchExperiment(b, "table3.2") }
func BenchmarkFig3_8to10(b *testing.B)  { benchExperiment(b, "fig3.8") }
func BenchmarkFig3_11to13(b *testing.B) { benchExperiment(b, "fig3.11") }

// --- Chapter 5 ---

func BenchmarkTable5_1(b *testing.B) { benchExperiment(b, "table5.1") }

// Fig 5.1 and Table 5.4 are the allocation-regression canaries for the
// simulator's pooled hot path: ReportAllocs keeps allocs/op visible so a
// reintroduced per-event allocation shows up in the bench history.
func BenchmarkFig5_1(b *testing.B) {
	b.ReportAllocs()
	benchExperiment(b, "fig5.1")
}
func BenchmarkFig5_2(b *testing.B)   { benchExperiment(b, "fig5.2") }
func BenchmarkFig5_3(b *testing.B)   { benchExperiment(b, "fig5.3") }
func BenchmarkTable5_2(b *testing.B) { benchExperiment(b, "table5.2") }
func BenchmarkTable5_3(b *testing.B) { benchExperiment(b, "table5.3") }
func BenchmarkTable5_4(b *testing.B) {
	b.ReportAllocs()
	benchExperiment(b, "table5.4")
}
func BenchmarkFig5_4(b *testing.B)   { benchExperiment(b, "fig5.4") }
func BenchmarkFig5_5(b *testing.B)   { benchExperiment(b, "fig5.5") }
func BenchmarkTable5_5(b *testing.B) { benchExperiment(b, "table5.5") }

// --- Chapter 4 timing model and Chapter 6 ---

func BenchmarkTimingModel(b *testing.B) { benchExperiment(b, "timing") }
func BenchmarkMultilisp(b *testing.B)   { benchExperiment(b, "multilisp") }
func BenchmarkParallelism(b *testing.B) { benchExperiment(b, "parallelism") }
func BenchmarkClarkStudy(b *testing.B)  { benchExperiment(b, "clark") }
func BenchmarkGCStudy(b *testing.B)     { benchExperiment(b, "gc") }
func BenchmarkDirectStudy(b *testing.B) { benchExperiment(b, "direct") }

// BenchmarkSweepSpeedup measures the parallel sweep engine against a
// single-worker run of the same multi-seed knee sweep (the Fig 5.2
// inner loop) and reports the wall-clock ratio as speedup_x. On a
// single-core host the ratio sits near 1; the engine targets ≥2x on
// four or more cores.
func BenchmarkSweepSpeedup(b *testing.B) {
	defer parsweep.SetWorkers(0)
	st := slangStream(b)
	const points = 16
	sweep := func() error {
		_, err := parsweep.Map(points, func(i int) (int, error) {
			res, err := sim.Run(st, sim.Params{TableSize: 1 << 16, Seed: int64(i)})
			if err != nil {
				return 0, err
			}
			return res.PeakLPT, nil
		})
		return err
	}
	var serialNS, parallelNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parsweep.SetWorkers(1)
		t0 := time.Now()
		if err := sweep(); err != nil {
			b.Fatal(err)
		}
		serialNS += time.Since(t0).Nanoseconds()
		parsweep.SetWorkers(0) // back to GOMAXPROCS
		t0 = time.Now()
		if err := sweep(); err != nil {
			b.Fatal(err)
		}
		parallelNS += time.Since(t0).Nanoseconds()
	}
	b.StopTimer()
	if parallelNS > 0 {
		b.ReportMetric(float64(serialNS)/float64(parallelNS), "speedup_x")
	}
	b.ReportMetric(float64(parsweep.Workers()), "workers")
}

// --- Ablation benches for the DESIGN.md design choices ---

func slangStream(b *testing.B) *trace.Stream {
	b.Helper()
	st, err := sharedRunner().Stream("slang")
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkAblationFreeDiscipline: free stack (SMALL) vs free queue for
// LPT entry reuse. The stack minimises how long lazily-retained children
// of freed entries occupy table space; the metric is average occupancy.
func BenchmarkAblationFreeDiscipline(b *testing.B) {
	st := slangStream(b)
	for _, cfg := range []struct {
		name string
		d    core.FreeDiscipline
	}{{"stack", core.FreeStack}, {"queue", core.FreeQueue}} {
		b.Run(cfg.name, func(b *testing.B) {
			var occ float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(st, sim.Params{TableSize: 512, Seed: 1, FreeList: cfg.d})
				if err != nil {
					b.Fatal(err)
				}
				occ = res.AvgLPT
			}
			b.ReportMetric(occ, "avg-occupancy")
		})
	}
}

// BenchmarkAblationLazyDecrement: lazy vs recursive child decrement
// (Table 5.2 Refops vs RecRefops).
func BenchmarkAblationLazyDecrement(b *testing.B) {
	st := slangStream(b)
	for _, cfg := range []struct {
		name string
		d    core.DecrementPolicy
	}{{"lazy", core.LazyDecrement}, {"recursive", core.RecursiveDecrement}} {
		b.Run(cfg.name, func(b *testing.B) {
			var refops float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(st, sim.Params{TableSize: 512, Seed: 1, Decrement: cfg.d})
				if err != nil {
					b.Fatal(err)
				}
				refops = float64(res.Machine.LPT.Refops)
			}
			b.ReportMetric(refops, "refops")
		})
	}
}

// BenchmarkAblationSplitCounts: EP-side stack reference counting versus
// sending every count update over the EP-LP bus (Table 5.3).
func BenchmarkAblationSplitCounts(b *testing.B) {
	st := slangStream(b)
	for _, cfg := range []struct {
		name  string
		split bool
	}{{"unsplit", false}, {"split", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var msgs float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(st, sim.Params{TableSize: 512, Seed: 1, SplitStackCounts: cfg.split})
				if err != nil {
					b.Fatal(err)
				}
				msgs = float64(res.Machine.EPLPMessages)
			}
			b.ReportMetric(msgs, "ep-lp-msgs")
		})
	}
}

// BenchmarkAblationCompression: Compress-One vs Compress-All under
// pressure (Fig 5.3).
func BenchmarkAblationCompression(b *testing.B) {
	st := slangStream(b)
	for _, cfg := range []struct {
		name string
		p    core.CompressionPolicy
	}{{"one", core.CompressOne}, {"all", core.CompressAll}} {
		b.Run(cfg.name, func(b *testing.B) {
			var occ float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(st, sim.Params{TableSize: 48, Seed: 1, Policy: cfg.p})
				if err != nil {
					b.Fatal(err)
				}
				occ = res.AvgLPT
			}
			b.ReportMetric(occ, "avg-occupancy")
		})
	}
}

// BenchmarkAblationBinding: deep vs shallow vs value-cached deep binding
// in the interpreter (§2.3.2), measured by environment probes on a real
// benchmark program.
func BenchmarkAblationBinding(b *testing.B) {
	bench, _ := benchprogs.ByName("plagen")
	src := bench.Gen(1)
	for _, cfg := range []struct {
		name string
		mk   func() lisp.Env
	}{
		{"deep", func() lisp.Env { return lisp.NewDeepEnv() }},
		{"shallow", func() lisp.Env { return lisp.NewShallowEnv() }},
		{"cached", func() lisp.Env { return lisp.NewCachedDeepEnv(16) }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var probes float64
			for i := 0; i < b.N; i++ {
				env := cfg.mk()
				in := lisp.New(lisp.WithEnv(env))
				if _, err := in.Run(src); err != nil {
					b.Fatal(err)
				}
				probes = float64(env.Stats().Probes)
			}
			b.ReportMetric(probes, "env-probes")
		})
	}
}

// BenchmarkAblationHeapRep: build + full traversal cost of the same list
// under the four §2.3.3 representations; metrics report the space used.
func BenchmarkAblationHeapRep(b *testing.B) {
	doc, err := sexpr.Parse("(a (b c (d e) f) g (h (i j k) l) m n (o p) q r s t)")
	if err != nil {
		b.Fatal(err)
	}
	var traverse func(r heap.Representation, w heap.Word)
	traverse = func(r heap.Representation, w heap.Word) {
		if w.Tag != heap.TagCell {
			return
		}
		car, err := r.Car(w)
		if err != nil {
			b.Fatal(err)
		}
		traverse(r, car)
		cdr, err := r.Cdr(w)
		if err != nil {
			b.Fatal(err)
		}
		traverse(r, cdr)
	}
	for _, mk := range []func() heap.Representation{
		func() heap.Representation { return heap.NewTwoPtr(4096) },
		func() heap.Representation { return heap.NewCdr2(8192) },
		func() heap.Representation { return heap.NewLinkedVec(8192, 8) },
		func() heap.Representation { return heap.NewCdar() },
		func() heap.Representation { return heap.NewOffsetCode(8192) },
		func() heap.Representation { return heap.NewBlast(2048, 8) },
	} {
		name := mk().Name()
		b.Run(name, func(b *testing.B) {
			var words float64
			for i := 0; i < b.N; i++ {
				r := mk()
				w, err := r.Build(doc)
				if err != nil {
					b.Fatal(err)
				}
				traverse(r, w)
				words = float64(r.Words())
			}
			b.ReportMetric(words, "words")
		})
	}
}

// BenchmarkAblationRefWeight: message cost of reference weighting versus
// naive distributed reference counting (one increment message per copy).
func BenchmarkAblationRefWeight(b *testing.B) {
	for _, mode := range []string{"weighting", "naive"} {
		b.Run(mode, func(b *testing.B) {
			var msgs float64
			for i := 0; i < b.N; i++ {
				s := multilisp.NewSystem(4)
				root := s.Nodes[0].Cons(multilisp.AtomRef(sexpr.Int(1)), multilisp.NilRef)
				cur := root
				copies := make([]multilisp.Ref, 0, 128)
				for j := 0; j < 128; j++ {
					kept, cp, err := s.Nodes[1].Copy(cur)
					if err != nil {
						b.Fatal(err)
					}
					cur = kept
					copies = append(copies, cp)
				}
				for _, cp := range copies {
					s.Nodes[1].Release(cp)
				}
				s.Nodes[1].Release(cur)
				s.Quiesce()
				st := s.Stats()
				switch mode {
				case "weighting":
					msgs = float64(st.DecMessages)
				case "naive":
					// naive counting: every copy = 1 increment message,
					// every release = 1 decrement message, no combining.
					msgs = float64(st.LocalCopies + st.DecMessages + st.DecCombined)
				}
			}
			b.ReportMetric(msgs, "messages")
		})
	}
}

// --- SMALL machine micro-benchmarks ---

func BenchmarkMachineConsRelease(b *testing.B) {
	m := core.NewMachine(core.Config{LPTSize: 4096})
	a, err := m.ReadList(sexpr.List(sexpr.Symbol("x")), core.NilValue)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := m.Cons(a, core.NilValue)
		if err != nil {
			b.Fatal(err)
		}
		m.Release(v)
	}
}

func BenchmarkMachineCarHit(b *testing.B) {
	m := core.NewMachine(core.Config{LPTSize: 4096})
	l, err := m.ReadList(sexpr.List(sexpr.Symbol("x"), sexpr.Symbol("y")), core.NilValue)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Car(l); err != nil { // prime the split
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := m.Car(l)
		if err != nil {
			b.Fatal(err)
		}
		m.Release(v)
	}
}

func BenchmarkInterpreterFib(b *testing.B) {
	src := `
	(defun fib (n)
	  (cond ((lessp n 2) n)
	        (t (+ (fib (- n 1)) (fib (- n 2))))))
	(fib 15)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lisp.New().Run(src); err != nil {
			b.Fatal(err)
		}
	}
}
