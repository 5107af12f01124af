// Package experiments regenerates every measured table and figure of the
// thesis's evaluation chapters. Each experiment is a function returning a
// Report (an identifier, a title, and a formatted text rendition of the
// table or figure data); cmd/experiments prints them and the repository's
// bench harness times them.
//
// Scale: the original traces ran to 160,933 primitives (Table 5.1). The
// default scale here regenerates the same *shapes* on proportionally
// smaller traces; pass a larger scale to close the gap at the cost of run
// time.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/benchprogs"
	"repro/internal/locality"
	"repro/internal/parsweep"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Text  string
}

// Config parameterises a run of the suite.
type Config struct {
	// Scale of the benchmark traces (default 2).
	Scale int
	// Seeds for the multi-seed studies (Fig 5.2; thesis used 60–90).
	Seeds int
	// CacheDir, when non-empty, persists generated traces (binary
	// ".btrace") and preprocessed streams (".refs") keyed by
	// benchmark+scale; reruns load them from disk and skip both trace
	// generation and Preprocess. See cache.go.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 2
	}
	if c.Seeds <= 0 {
		c.Seeds = 30
	}
	return c
}

// cell is a singleflight slot: the first caller for a key runs the
// generation inside once; every concurrent caller for the same key blocks
// on that one generation and shares its result. Parallel experiments
// therefore never regenerate a trace, stream, or partition twice, and
// insertion races cannot produce two distinct cached values.
type cell[T any] struct {
	once sync.Once
	v    T
	err  error
}

// lookup returns the cell for key, creating it under mu on first use.
func lookup[T any](mu *sync.Mutex, m map[string]*cell[T], key string) *cell[T] {
	mu.Lock()
	c, ok := m[key]
	if !ok {
		c = new(cell[T])
		m[key] = c
	}
	mu.Unlock()
	return c
}

// Runner caches traces, streams, and default partitions across
// experiments. All methods are safe for concurrent use by the parallel
// sweep engine.
type Runner struct {
	cfg        Config
	ctx        context.Context
	mu         sync.Mutex
	traces     map[string]*cell[*trace.Trace]
	streams    map[string]*cell[*trace.Stream]
	partitions map[string]*cell[*locality.Partition]
}

// NewRunner builds a runner whose sweeps run to completion.
func NewRunner(cfg Config) *Runner {
	return NewRunnerCtx(context.Background(), cfg)
}

// NewRunnerCtx builds a runner bound to ctx: every sweep an experiment
// fans out through the runner stops claiming points once ctx is done, so
// a cancelled caller (an abandoned smalld request, a timed-out job) gives
// its workers back within one point's runtime instead of running the
// sweep to completion.
func NewRunnerCtx(ctx context.Context, cfg Config) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Runner{
		cfg:        cfg.withDefaults(),
		ctx:        ctx,
		traces:     make(map[string]*cell[*trace.Trace]),
		streams:    make(map[string]*cell[*trace.Stream]),
		partitions: make(map[string]*cell[*locality.Partition]),
	}
}

// Context returns the runner's cancellation context.
func (r *Runner) Context() context.Context { return r.ctx }

// pmap fans a sweep out through the shared engine under the runner's
// context; every experiment's point loop goes through here so that
// cancelling the runner cancels its sweeps.
func pmap[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	return parsweep.MapCtx(r.ctx, n, fn)
}

// benchOrder is the reporting order used throughout Chapter 5.
var benchOrder = []string{"lyra", "plagen", "slang", "editor"}

// benchOrderCh3 includes PEARL, reported in Chapter 3 only.
var benchOrderCh3 = []string{"slang", "plagen", "lyra", "editor", "pearl"}

// Trace returns (and caches) the named benchmark trace. Concurrent
// callers share a single generation, which stops with the runner's
// context; with CacheDir set, the binary on-disk copy is tried before
// regenerating.
func (r *Runner) Trace(name string) (*trace.Trace, error) {
	c := lookup(&r.mu, r.traces, name)
	c.once.Do(func() {
		b, ok := benchprogs.ByName(name)
		if !ok {
			c.err = fmt.Errorf("experiments: unknown benchmark %q", name)
			return
		}
		path := r.cachePath(name, "btrace")
		if path != "" {
			if t, err := loadCachedTrace(path); err == nil {
				c.v = t
				return
			}
		}
		c.v, c.err = benchprogs.TraceCtx(r.ctx, b, r.cfg.Scale)
		if c.err == nil && path != "" {
			_ = saveCachedTrace(path, c.v) // best-effort
		}
	})
	return c.v, c.err
}

// Stream returns the preprocessed reference stream for a benchmark.
// Concurrent callers share a single preprocessing pass; with CacheDir
// set, a serialized ".refs" file is memory-loaded instead, skipping
// both trace generation and Preprocess.
func (r *Runner) Stream(name string) (*trace.Stream, error) {
	c := lookup(&r.mu, r.streams, name)
	c.once.Do(func() {
		path := r.cachePath(name, "refs")
		if path != "" {
			if st, err := loadCachedStream(path); err == nil {
				c.v = st
				return
			}
		}
		t, err := r.Trace(name)
		if err != nil {
			c.err = err
			return
		}
		c.v = trace.Preprocess(t)
		if path != "" {
			_ = saveCachedStream(path, c.v) // best-effort
		}
	})
	return c.v, c.err
}

// Experiment names one regenerable artifact.
type Experiment struct {
	ID  string
	Run func(r *Runner) (*Report, error)
}

// All lists every experiment in thesis order.
func All() []Experiment {
	return []Experiment{
		{"fig3.1", Fig3_1},
		{"table3.1", Table3_1},
		{"fig3.3", Fig3_3},
		{"fig3.4", Fig3_4},
		{"fig3.5", Fig3_5},
		{"fig3.6", Fig3_6},
		{"fig3.7", Fig3_7},
		{"table3.2", Table3_2},
		{"fig3.8", Fig3_8to10},
		{"fig3.11", Fig3_11to13},
		{"table5.1", Table5_1},
		{"fig5.1", Fig5_1},
		{"fig5.2", Fig5_2},
		{"fig5.3", Fig5_3},
		{"table5.2", Table5_2},
		{"table5.3", Table5_3},
		{"table5.4", Table5_4},
		{"fig5.4", Fig5_4},
		{"fig5.5", Fig5_5},
		{"table5.5", Table5_5},
		{"timing", TimingStudy},
		{"multilisp", MultilispStudy},
		{"parallelism", ParallelismStudy},
		{"clark", ClarkStudy},
		{"gc", GCStudy},
		{"direct", DirectStudy},
		{"dml", DMLStudy},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table renders rows with a header, padding columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// curveRows samples a CDF-style curve at round percentages for compact
// textual rendering.
func curveRows(points []stats.CDFPoint, xLabel string) [][]string {
	if len(points) == 0 {
		return nil
	}
	var rows [][]string
	// Sample at most 12 points, spread over the curve.
	step := len(points) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(points); i += step {
		p := points[i]
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.X), fmt.Sprintf("%.1f%%", p.CumPct),
		})
	}
	last := points[len(points)-1]
	rows = append(rows, []string{fmt.Sprintf("%.0f", last.X), fmt.Sprintf("%.1f%%", last.CumPct)})
	_ = xLabel
	return rows
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func d(x int64) string    { return fmt.Sprintf("%d", x) }

// sortedKeys returns map keys ascending (for deterministic dist output).
func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
