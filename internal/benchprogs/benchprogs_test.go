package benchprogs

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
)

func traceOf(t *testing.T, name string, scale int) *trace.Trace {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	tr, err := Trace(b, scale)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAllBenchmarksRun(t *testing.T) {
	for _, b := range All() {
		tr, err := Trace(b, 1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		s := trace.Summarize(tr)
		if s.Primitives < 100 {
			t.Errorf("%s: only %d primitives traced", b.Name, s.Primitives)
		}
		if s.Functions < 10 {
			t.Errorf("%s: only %d function calls", b.Name, s.Functions)
		}
		if s.MaxDepth < 2 {
			t.Errorf("%s: max depth %d", b.Name, s.MaxDepth)
		}
	}
}

// TestPrimitiveMixCalibration checks the Fig 3.1 qualitative shapes:
// access primitives dominate everywhere except that SLANG has an elevated
// cons share and PEARL an elevated rplac share.
func TestPrimitiveMixCalibration(t *testing.T) {
	stats := make(map[string]trace.Stats)
	for _, b := range All() {
		stats[b.Name] = trace.Summarize(traceOf(t, b.Name, 1))
	}
	for name, s := range stats {
		carCdr := s.Pct("car") + s.Pct("cdr")
		if name != "pearl" && carCdr < 40 {
			t.Errorf("%s: car+cdr = %.1f%%, want ≥ 40%%", name, carCdr)
		}
	}
	// SLANG's cons share exceeds LYRA's and PLAGEN's (Fig 3.1).
	if stats["slang"].Pct("cons") <= stats["lyra"].Pct("cons") {
		t.Errorf("slang cons %.1f%% should exceed lyra cons %.1f%%",
			stats["slang"].Pct("cons"), stats["lyra"].Pct("cons"))
	}
	// PEARL's rplaca/rplacd share is the highest of all benchmarks.
	rplac := func(s trace.Stats) float64 { return s.Pct("rplaca") + s.Pct("rplacd") }
	for _, other := range []string{"slang", "plagen", "lyra", "editor"} {
		if rplac(stats["pearl"]) <= rplac(stats[other]) {
			t.Errorf("pearl rplac %.1f%% should exceed %s rplac %.1f%%",
				rplac(stats["pearl"]), other, rplac(stats[other]))
		}
	}
}

// TestTraceLengthOrdering checks the Table 5.1 ordering: LYRA's trace is
// the longest and EDITOR's among the shortest.
func TestTraceLengthOrdering(t *testing.T) {
	lens := make(map[string]int)
	for _, b := range All() {
		lens[b.Name] = trace.Summarize(traceOf(t, b.Name, 2)).Primitives
	}
	if lens["lyra"] <= lens["slang"] || lens["lyra"] <= lens["editor"] {
		t.Errorf("lyra should have the longest trace: %v", lens)
	}
}

// TestComplexityCalibration checks Table 3.1: editor lists are much larger
// and more structured than the others.
func TestComplexityCalibration(t *testing.T) {
	ed := trace.MeasureNP(traceOf(t, "editor", 1))
	sl := trace.MeasureNP(traceOf(t, "slang", 1))
	if ed.AvgN <= sl.AvgN {
		t.Errorf("editor AvgN %.1f should exceed slang AvgN %.1f", ed.AvgN, sl.AvgN)
	}
	if ed.AvgP <= sl.AvgP {
		t.Errorf("editor AvgP %.1f should exceed slang AvgP %.1f", ed.AvgP, sl.AvgP)
	}
}

// TestChainingCalibration checks Table 3.2: substantial chaining in the
// access-heavy benchmarks, near-zero in PEARL.
func TestChainingCalibration(t *testing.T) {
	pearl := trace.Chaining(trace.Preprocess(traceOf(t, "pearl", 1)))
	lyra := trace.Chaining(trace.Preprocess(traceOf(t, "lyra", 1)))
	if pearl.CarPct > 10 {
		t.Errorf("pearl car chaining %.1f%% should be near zero", pearl.CarPct)
	}
	if lyra.CarPct < 20 {
		t.Errorf("lyra car chaining %.1f%% should be substantial", lyra.CarPct)
	}
	if lyra.CarPct <= pearl.CarPct {
		t.Errorf("lyra chaining %.1f%% should exceed pearl %.1f%%", lyra.CarPct, pearl.CarPct)
	}
}

// TestScaleGrowsTraces verifies the scale knob actually lengthens traces.
func TestScaleGrowsTraces(t *testing.T) {
	b, _ := ByName("lyra")
	t1, err := Trace(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Trace(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Prims() <= t1.Prims() {
		t.Errorf("scale 3 trace (%d prims) not longer than scale 1 (%d)", t3.Prims(), t1.Prims())
	}
}

func TestDeterministicTraces(t *testing.T) {
	a := traceOf(t, "slang", 1)
	b := traceOf(t, "slang", 1)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Op != b.Events[i].Op || a.Events[i].Result != b.Events[i].Result {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestTraceCtxStopsWhenCancelled: trace generation polls its context,
// so a caller that has gone away stops the run.
func TestTraceCtxStopsWhenCancelled(t *testing.T) {
	b, _ := ByName("lyra")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TraceCtx(ctx, b, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("TraceCtx on a cancelled context: %v, want context.Canceled", err)
	}
}
