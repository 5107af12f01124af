// Command smallsim runs the Chapter 5 trace-driven SMALL simulator on a
// trace file.
//
//	smallsim -table 2048 traces/lyra.trace
//	smallsim -table 256 -cache 256 -line 4 -split traces/slang.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	tableSize := flag.Int("table", 2048, "LPT entries")
	policy := flag.String("policy", "one", "pseudo overflow policy: one or all")
	decr := flag.String("decrement", "lazy", "child decrement: lazy or recursive")
	split := flag.Bool("split", false, "split stack reference counts (Table 5.3)")
	cacheEntries := flag.Int("cache", 0, "parallel data cache entries (0 = off)")
	line := flag.Int("line", 1, "cache line size in cells")
	seed := flag.Int64("seed", 1, "random seed")
	argProb := flag.Float64("argprob", 0.60, "P(argument of current function)")
	locProb := flag.Float64("locprob", 0.30, "P(local of current function)")
	bindProb := flag.Float64("bindprob", 0.01, "P(result bound to a variable)")
	readProb := flag.Float64("readprob", 0.01, "P(variable freshly read into)")
	timing := flag.Bool("timing", false, "run the Fig 4.10-4.13 timing model")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: smallsim [flags] <trace file>")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "smallsim: %v\n", err)
		os.Exit(1)
	}
	// Any trace format is accepted: text, binary ("SMTB"), or a
	// preprocessed reference stream ("SMRS").
	st, err := trace.ReadRefs(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smallsim: %v\n", err)
		os.Exit(1)
	}
	p := sim.Params{
		TableSize: *tableSize,
		Seed:      *seed,
		ArgProb:   *argProb, LocProb: *locProb,
		BindProb: *bindProb, ReadProb: *readProb,
		SplitStackCounts: *split,
		CacheEntries:     *cacheEntries,
		CacheLineSize:    *line,
	}
	if *policy == "all" {
		p.Policy = core.CompressAll
	}
	if *decr == "recursive" {
		p.Decrement = core.RecursiveDecrement
	}
	if *timing {
		tp := core.DefaultTiming()
		p.Timing = &tp
	}
	res, err := sim.Run(st, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smallsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace %s: %d primitive events\n", st.Name, res.Events)
	fmt.Printf("LPT: peak %d / %d entries, avg occupancy %.1f\n",
		res.PeakLPT, *tableSize, res.AvgLPT)
	fmt.Printf("LPT: hits %d misses %d (%.2f%% hit rate)\n",
		res.LPTHits, res.LPTMisses, res.LPTHitRate())
	l := res.Machine.LPT
	fmt.Printf("LPT activity: refops %d gets %d frees %d\n", l.Refops, l.Gets, l.Frees)
	fmt.Printf("overflow: pseudo %d (compressed %d pairs), true %d, mode switches %d\n",
		l.PseudoOverflow, l.CompressedPairs, l.TrueOverflow, res.Machine.ModeSwitches)
	if *split {
		fmt.Printf("split counts: %d stack events -> %d EP-LP messages (max EP count %d)\n",
			res.Machine.StackRefEvents, res.Machine.EPLPMessages, res.Machine.MaxEPCount)
	}
	if *cacheEntries > 0 {
		fmt.Printf("cache (%d entries, line %d): hits %d misses %d (%.2f%% hit rate)\n",
			*cacheEntries, *line, res.CacheHits, res.CacheMisses, res.CacheHitRate())
		if res.LPTMisses > 0 {
			fmt.Printf("cache/LPT miss ratio: %.2f\n",
				float64(res.CacheMisses)/float64(res.LPTMisses))
		}
	}
	if *timing {
		ts := res.Timing
		fmt.Printf("timing: EP clock %d, LP busy %d, EP idle %d, serial %d, speedup %.2f\n",
			ts.EPClock, ts.LPBusy, ts.EPIdle, ts.Serial, ts.Speedup())
	}
}
