package sim

import (
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/core"
	"repro/internal/trace"
)

type streamKey struct {
	name  string
	scale int
}

var streams = map[streamKey]*trace.Stream{}

// stream returns the named benchprog's reference stream at scale 1.
func stream(t testing.TB, name string) *trace.Stream {
	t.Helper()
	return streamAt(t, name, 1)
}

// streamAt returns the named benchprog's reference stream at scale,
// generating it once per test binary.
func streamAt(t testing.TB, name string, scale int) *trace.Stream {
	t.Helper()
	k := streamKey{name, scale}
	if st, ok := streams[k]; ok {
		return st
	}
	b, ok := benchprogs.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	tr, err := benchprogs.Trace(b, scale)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Preprocess(tr)
	streams[k] = st
	return st
}

func TestRunCompletes(t *testing.T) {
	for _, name := range []string{"slang", "plagen", "pearl", "editor"} {
		st := stream(t, name)
		res, err := Run(st, Params{TableSize: 2048, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Events == 0 {
			t.Errorf("%s: no events replayed", name)
		}
		if res.PeakLPT <= 0 {
			t.Errorf("%s: PeakLPT = %d", name, res.PeakLPT)
		}
		if res.TrueOverflowed {
			t.Errorf("%s: overflowed with a 2K table (thesis: should not)", name)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	st := stream(t, "slang")
	a, err := Run(st, Params{TableSize: 512, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(st, Params{TableSize: 512, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakLPT != b.PeakLPT || a.LPTHits != b.LPTHits || a.Machine.LPT.Refops != b.Machine.LPT.Refops {
		t.Error("same seed must reproduce the same run")
	}
	c, err := Run(st, Params{TableSize: 512, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakLPT == c.PeakLPT && a.LPTHits == c.LPTHits && a.Machine.LPT.Refops == c.Machine.LPT.Refops {
		t.Log("different seeds gave identical stats (possible but unlikely)")
	}
}

// TestPeakUsageKneeCurve reproduces the Fig 5.1 shape: peak usage equals
// the table size while overflows occur, then saturates at the knee.
func TestPeakUsageKneeCurve(t *testing.T) {
	st := stream(t, "slang")
	// Find the knee with an effectively unbounded table.
	free, err := Run(st, Params{TableSize: 1 << 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	knee := free.PeakLPT
	if knee < 8 {
		t.Skipf("trace too small for a knee study: knee=%d", knee)
	}
	// Below the knee: peak == table size (pseudo overflows compress to fit).
	small := knee / 2
	resSmall, err := Run(st, Params{TableSize: small, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.PeakLPT > small {
		t.Errorf("peak %d exceeds table size %d", resSmall.PeakLPT, small)
	}
	if resSmall.Machine.LPT.PseudoOverflow == 0 && !resSmall.TrueOverflowed {
		t.Error("below-knee run should see overflows")
	}
	// Above the knee: peak stays at the knee.
	resBig, err := Run(st, Params{TableSize: knee * 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resBig.PeakLPT != knee {
		t.Errorf("above-knee peak = %d, want %d", resBig.PeakLPT, knee)
	}
	if resBig.Machine.LPT.PseudoOverflow != 0 {
		t.Error("above-knee run should not overflow")
	}
}

// TestCompressionPolicyOccupancy reproduces the Fig 5.3 relationship:
// Compress-One leaves average occupancy at or above Compress-All.
func TestCompressionPolicyOccupancy(t *testing.T) {
	st := stream(t, "slang")
	free, err := Run(st, Params{TableSize: 1 << 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	size := free.PeakLPT / 2
	if size < 4 {
		t.Skip("trace too small")
	}
	one, err := Run(st, Params{TableSize: size, Seed: 3, Policy: core.CompressOne})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(st, Params{TableSize: size, Seed: 3, Policy: core.CompressAll})
	if err != nil {
		t.Fatal(err)
	}
	if one.AvgLPT+0.5 < all.AvgLPT {
		t.Errorf("CompressOne avg %.1f should be >= CompressAll avg %.1f",
			one.AvgLPT, all.AvgLPT)
	}
}

// TestLPTBeatsCacheAtEqualEntries reproduces the Table 5.4 relationship:
// with one cache entry per LPT entry and unit lines, the LPT sees fewer
// misses.
func TestLPTBeatsCacheAtEqualEntries(t *testing.T) {
	for _, name := range []string{"slang", "plagen"} {
		st := stream(t, name)
		res, err := Run(st, Params{
			TableSize: 256, Seed: 9,
			CacheEntries: 256, CacheLineSize: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheMisses+res.CacheHits == 0 {
			t.Fatalf("%s: cache never accessed", name)
		}
		if res.LPTMisses >= res.CacheMisses {
			t.Errorf("%s: LPT misses %d should be < cache misses %d",
				name, res.LPTMisses, res.CacheMisses)
		}
	}
}

// TestRefcountActivityScale reproduces the Table 5.2 scale: between 1 and
// a few reference count updates per primitive access.
func TestRefcountActivityScale(t *testing.T) {
	st := stream(t, "plagen")
	res, err := Run(st, Params{TableSize: 2048, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	perPrim := float64(res.Machine.LPT.Refops) / float64(res.Events)
	if perPrim < 0.5 || perPrim > 6 {
		t.Errorf("refops per primitive = %.2f, want ~1-4", perPrim)
	}
}

// TestRecursiveDecrementCostsMore reproduces Table 5.2's Refops vs
// RecRefops relationship.
func TestRecursiveDecrementCostsMore(t *testing.T) {
	st := stream(t, "slang")
	lazy, err := Run(st, Params{TableSize: 1024, Seed: 4, Decrement: core.LazyDecrement})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(st, Params{TableSize: 1024, Seed: 4, Decrement: core.RecursiveDecrement})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Machine.LPT.Refops <= lazy.Machine.LPT.Refops {
		t.Errorf("recursive refops %d should exceed lazy %d",
			rec.Machine.LPT.Refops, lazy.Machine.LPT.Refops)
	}
}

// TestSplitCountsReduceBusTraffic reproduces the Table 5.3 near
// order-of-magnitude reduction in EP–LP reference count messages.
func TestSplitCountsReduceBusTraffic(t *testing.T) {
	st := stream(t, "plagen")
	res, err := Run(st, Params{TableSize: 2048, Seed: 6, SplitStackCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	then := res.Machine.StackRefEvents
	now := res.Machine.EPLPMessages
	if now >= then {
		t.Fatalf("split counts: messages %d should be < events %d", now, then)
	}
	if float64(now) > 0.55*float64(then) {
		t.Errorf("split counts reduced traffic only from %d to %d", then, now)
	}
}

// TestWiderCacheLinesCloseTheGap reproduces the Fig 5.5 trend: growing
// the line size (at fixed cache capacity) improves the cache relative to
// the LPT because of prefetching.
func TestWiderCacheLinesCloseTheGap(t *testing.T) {
	st := stream(t, "slang")
	ratio := func(line int) float64 {
		res, err := Run(st, Params{
			TableSize: 128, Seed: 8,
			CacheEntries: 256, CacheLineSize: line, // half-size cache entries
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.LPTMisses == 0 {
			return 0
		}
		return float64(res.CacheMisses) / float64(res.LPTMisses)
	}
	r1 := ratio(1)
	r8 := ratio(8)
	if r8 >= r1 {
		t.Errorf("line-8 miss ratio %.2f should be below line-1 ratio %.2f", r8, r1)
	}
}

// TestParameterSensitivity reproduces Table 5.5: perturbing the
// probability parameters moves the measures only modestly.
func TestParameterSensitivity(t *testing.T) {
	st := stream(t, "slang")
	control, err := Run(st, Params{TableSize: 1024, Seed: 11,
		ArgProb: 0.60, LocProb: 0.30, BindProb: 0.01, ReadProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	hiArg, err := Run(st, Params{TableSize: 1024, Seed: 11,
		ArgProb: 0.85, LocProb: 0.125, BindProb: 0.01, ReadProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cp := float64(control.PeakLPT)
	hp := float64(hiArg.PeakLPT)
	if hp < 0.4*cp || hp > 2.5*cp {
		t.Errorf("peak moved from %v to %v under HiArg: too sensitive", cp, hp)
	}
}

func TestTimingIntegration(t *testing.T) {
	st := stream(t, "pearl")
	p := core.DefaultTiming()
	res, err := Run(st, Params{TableSize: 1024, Seed: 12, Timing: &p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Ops == 0 {
		t.Fatal("timing not collected")
	}
	if res.Timing.Speedup() <= 1 {
		t.Errorf("speedup = %.2f, expected EP/LP overlap gain", res.Timing.Speedup())
	}
}

func TestTinyTableDegradesGracefully(t *testing.T) {
	st := stream(t, "slang")
	res, err := Run(st, Params{TableSize: 8, Seed: 13})
	if err != nil {
		t.Fatalf("tiny-table run should survive via overflow mode: %v", err)
	}
	if !res.TrueOverflowed && res.Machine.LPT.PseudoOverflow == 0 {
		t.Error("tiny table should overflow")
	}
	if res.PeakLPT > 8 {
		t.Errorf("peak %d exceeds table size", res.PeakLPT)
	}
}

// TestSyntheticOps exercises the event kinds real traces rarely contain:
// read events, unknown traversal ops, and hit-rate accessors.
func TestSyntheticOps(t *testing.T) {
	st := &trace.Stream{Refs: []trace.Ref{
		{Kind: trace.RefEnter, Op: trace.InternOp("f"), NArgs: 2, Depth: 1},
		{Kind: trace.RefPrim, Op: trace.OpRead},
		{Kind: trace.RefPrim, Op: trace.OpCar, Args: []int{1}, Result: 2},
		{Kind: trace.RefPrim, Op: trace.InternOp("nthcdr"), Args: []int{1}, Result: 3}, // unknown op
		{Kind: trace.RefPrim, Op: trace.OpRplaca, Args: []int{1}, Result: 1},
		{Kind: trace.RefPrim, Op: trace.OpCons, Args: []int{1, 2}, Result: 4},
		{Kind: trace.RefPrim, Op: trace.OpCdr, Args: []int{2}, Result: 5, Chain: true},
		{Kind: trace.RefExit, Op: trace.InternOp("f"), Depth: 1},
	}}
	res, err := Run(st, Params{TableSize: 64, Seed: 3, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 6 {
		t.Errorf("Events = %d, want 6", res.Events)
	}
	if res.LPTHitRate() < 0 || res.LPTHitRate() > 100 {
		t.Errorf("LPTHitRate = %v", res.LPTHitRate())
	}
	if res.CacheHitRate() < 0 || res.CacheHitRate() > 100 {
		t.Errorf("CacheHitRate = %v", res.CacheHitRate())
	}
}

// TestFreeQueueDiscipline runs the FreeQueue ablation configuration
// through the simulator; occupancy should be at least that of the stack
// discipline (the §4.3.2.1 argument for the stack).
func TestFreeQueueDiscipline(t *testing.T) {
	st := stream(t, "slang")
	stack, err := Run(st, Params{TableSize: 512, Seed: 2, FreeList: core.FreeStack})
	if err != nil {
		t.Fatal(err)
	}
	queue, err := Run(st, Params{TableSize: 512, Seed: 2, FreeList: core.FreeQueue})
	if err != nil {
		t.Fatal(err)
	}
	if queue.AvgLPT < stack.AvgLPT {
		t.Errorf("queue occupancy %.1f should be >= stack %.1f (lazy children linger longer)",
			queue.AvgLPT, stack.AvgLPT)
	}
}
