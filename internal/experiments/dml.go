package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/benchprogs"
	"repro/internal/dml"
	"repro/internal/lisp"
)

// dmlStepLimit bounds each evaluation in the study; the editor
// benchmark is the deepest and stays well inside this.
const dmlStepLimit = 200_000_000

// DMLStudy runs every Chapter 3 benchmark program under distributed
// Multilisp evaluation at 1, 2, and 4 in-process workers and reports
// the deterministic message economics: how many top-level argument
// positions the strict-purity transform shipped as futures, and that
// the distributed value and output were identical to the single-node
// interpreter with zero weight-increment messages. Wall-clock speedups
// and combining ratios are timing-dependent and come from
// internal/cluster's BenchmarkDMLEval, not here — this report must be
// byte-stable.
func DMLStudy(r *Runner) (*Report, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "distributed Multilisp over in-process workers; pcall transform on\n")
	fmt.Fprintf(&b, "strict purity basis (property-list reads unshippable)\n\n")

	var rows [][]string
	for _, name := range benchOrderCh3 {
		bench, ok := benchprogs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
		}
		src := bench.Gen(1)
		var baseOut bytes.Buffer
		base := lisp.New(lisp.WithOutput(&baseOut), lisp.WithStepLimit(dmlStepLimit))
		baseVal, err := base.Run(src)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s baseline: %w", name, err)
		}
		for _, n := range []int{1, 2, 4} {
			links := make([]dml.Link, n)
			for i := range links {
				links[i] = dml.NewLocalLink(fmt.Sprintf("w%d", i),
					dml.NewWorker(dml.WorkerConfig{StepLimit: dmlStepLimit}))
			}
			sp := dml.NewSpawner(links...)
			var out bytes.Buffer
			ev := dml.NewEvaluator(sp, &out, lisp.WithStepLimit(dmlStepLimit))
			val, err := ev.Run(r.Context(), src, true)
			if err != nil {
				sp.Close()
				return nil, fmt.Errorf("experiments: %s at %d workers: %w", name, n, err)
			}
			identical := lisp.Format(val) == lisp.Format(baseVal) && out.String() == baseOut.String()
			ev.Close()
			st := sp.Stats()
			sp.Close()
			if st.WeightIncMessages != 0 {
				return nil, fmt.Errorf("experiments: %s sent %d weight increments", name, st.WeightIncMessages)
			}
			rows = append(rows, []string{
				name, d(int64(n)), d(st.Spawns), d(st.Touches), d(st.Releases),
				fmt.Sprint(identical), d(st.WeightIncMessages),
			})
		}
	}
	b.WriteString(table(
		[]string{"bench", "workers", "spawns", "touches", "releases", "identical", "inc msgs"},
		rows))
	b.WriteString("\n(slang and pearl are property-list machines: the conservative purity\n" +
		"analysis refuses to ship (get ...) and correctly spawns nothing; the\n" +
		"inc-msgs column is structural — no weight-increment verb exists)\n")
	return &Report{
		ID:    "dml",
		Title: "Chapter 6: distributed Multilisp futures over SMCR workers",
		Text:  b.String(),
	}, nil
}
