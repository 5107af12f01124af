package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/benchprogs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parsweep"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SimPoint is one simulation point of a /v1/sim job: the Chapter 5
// parameters of a single sim.Run. Zero values take thesis defaults.
type SimPoint struct {
	TableSize int    `json:"table_size,omitempty"`
	HeapCells int    `json:"heap_cells,omitempty"`
	Policy    string `json:"policy,omitempty"`    // "one" (default) or "all"
	Decrement string `json:"decrement,omitempty"` // "lazy" (default) or "recursive"
	Split     bool   `json:"split,omitempty"`     // split stack reference counts
	Seed      int64  `json:"seed,omitempty"`

	ArgProb  float64 `json:"arg_prob,omitempty"`
	LocProb  float64 `json:"loc_prob,omitempty"`
	BindProb float64 `json:"bind_prob,omitempty"`
	ReadProb float64 `json:"read_prob,omitempty"`

	CacheEntries  int  `json:"cache_entries,omitempty"`
	CacheLineSize int  `json:"line_size,omitempty"`
	Timing        bool `json:"timing,omitempty"`
}

// params converts the wire point into sim.Params.
func (p SimPoint) params() (sim.Params, error) {
	sp := sim.Params{
		TableSize: p.TableSize,
		HeapCells: p.HeapCells,
		Seed:      p.Seed,
		ArgProb:   p.ArgProb, LocProb: p.LocProb,
		BindProb: p.BindProb, ReadProb: p.ReadProb,
		SplitStackCounts: p.Split,
		CacheEntries:     p.CacheEntries,
		CacheLineSize:    p.CacheLineSize,
	}
	switch p.Policy {
	case "", "one":
	case "all":
		sp.Policy = core.CompressAll
	default:
		return sp, fmt.Errorf("unknown policy %q (want \"one\" or \"all\")", p.Policy)
	}
	switch p.Decrement {
	case "", "lazy":
	case "recursive":
		sp.Decrement = core.RecursiveDecrement
	default:
		return sp, fmt.Errorf("unknown decrement %q (want \"lazy\" or \"recursive\")", p.Decrement)
	}
	if p.Timing {
		tp := core.DefaultTiming()
		sp.Timing = &tp
	}
	return sp, nil
}

// SimRequest is a stateless simulation job: a trace source plus one or
// more points. Points fan out through the shared parsweep engine, so a
// multi-point job parallelises like any experiment sweep and dies with
// the request's context.
type SimRequest struct {
	// Trace names a built-in benchmark (slang, plagen, lyra, editor,
	// pearl); TraceText supplies a raw text trace file instead, and
	// TraceData (base64 in JSON, per encoding/json []byte) supplies a
	// trace in any on-disk format — text, binary ("SMTB"), or a
	// preprocessed reference stream ("SMRS", which skips Preprocess
	// server-side). TraceData wins over TraceText wins over Trace.
	Trace     string `json:"trace,omitempty"`
	TraceText string `json:"trace_text,omitempty"`
	TraceData []byte `json:"trace_data,omitempty"`
	Scale     int    `json:"scale,omitempty"` // benchmark trace scale (default 2)

	// Point holds single-job parameters; Points, when non-empty, wins and
	// makes this a multi-point sweep.
	Point  SimPoint   `json:"point,omitempty"`
	Points []SimPoint `json:"points,omitempty"`
}

// SimResult is the wire form of one point's outcome.
type SimResult struct {
	Events     int     `json:"events"`
	PeakLPT    int     `json:"peak_lpt"`
	AvgLPT     float64 `json:"avg_lpt"`
	LPTHits    int64   `json:"lpt_hits"`
	LPTMisses  int64   `json:"lpt_misses"`
	LPTHitRate float64 `json:"lpt_hit_rate"`
	Refops     int64   `json:"refops"`
	Gets       int64   `json:"gets"`
	Frees      int64   `json:"frees"`
	Overflowed bool    `json:"overflowed,omitempty"`

	CacheHits    int64   `json:"cache_hits,omitempty"`
	CacheMisses  int64   `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`

	EPLPMessages int64 `json:"ep_lp_messages,omitempty"`

	Speedup float64 `json:"speedup,omitempty"` // timing model only
}

// SimResponse answers a /v1/sim job.
type SimResponse struct {
	Trace   string      `json:"trace"`
	Events  int         `json:"trace_events"`
	Results []SimResult `json:"results"`

	// decodedBytes counts the user-supplied trace payload bytes decoded
	// for this job; the handler feeds it into
	// smalld_trace_decode_bytes_total.
	decodedBytes int64
}

func wireResult(r *sim.Result) SimResult {
	out := SimResult{
		Events:     r.Events,
		PeakLPT:    r.PeakLPT,
		AvgLPT:     r.AvgLPT,
		LPTHits:    r.LPTHits,
		LPTMisses:  r.LPTMisses,
		LPTHitRate: r.LPTHitRate(),
		Refops:     r.Machine.LPT.Refops,
		Gets:       r.Machine.LPT.Gets,
		Frees:      r.Machine.LPT.Frees,
		Overflowed: r.TrueOverflowed,
	}
	if r.CacheHits+r.CacheMisses > 0 {
		out.CacheHits = r.CacheHits
		out.CacheMisses = r.CacheMisses
		out.CacheHitRate = r.CacheHitRate()
	}
	if r.Machine.EPLPMessages != r.Machine.StackRefEvents {
		out.EPLPMessages = r.Machine.EPLPMessages
	}
	if r.Timing.EPClock > 0 {
		out.Speedup = r.Timing.Speedup()
	}
	return out
}

// badRequestError marks a client error (400) as opposed to an internal
// failure (500).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{fmt.Sprintf(format, args...)}
}

// maxTraceScale caps the scale of built-in traces on /v1/sim and
// /v1/experiments. A benchprog's source grows linearly with scale before
// any step limit applies (lyra's trace at scale 8 has 659,513 events and
// takes 0.9 s and 309 MB of allocation on a 2-vCPU host), and the cap
// bounds the stream memo's keys to five programs times the cap.
const maxTraceScale = 4

// streamBudget is the most refs the stream memo holds. All five
// benchprogs at the default scale 2 come to 157,468 refs (10.8 MB of heap),
// so the default suite stays resident.
const streamBudget = 1 << 18

// streamKey names a built-in stream, which depends only on the program
// and its scale.
type streamKey struct {
	prog  string
	scale int
}

// memoEntry is one stream in the memo, kept or still being generated.
// done closes when the generation ends. st is set under streamMemo.mu
// before that, and stays nil if the generation failed, was cancelled or
// panicked, in which case the entry has already left the memo.
type memoEntry struct {
	done chan struct{}
	st   *trace.Stream
	used uint64 // under streamMemo.mu; memo clock at the last lookup
}

// streamMemo keeps the preprocessed streams of built-in traces, so each
// (program, scale) is generated and preprocessed once per process, the
// way the thesis derives each reference stream once (§5.2.1) and replays
// it under many LPT settings. Concurrent requests for one key share one
// generation, which runs under the first requester's context. A
// generation that fails is not kept, and each request that was waiting
// on it tries again under its own context. The memo holds at most budget
// refs and drops the least recently used stream first; a stream larger
// than the budget is served without being kept. Memoized streams are
// read-only and shared by concurrent simulations.
type streamMemo struct {
	budget  int
	gen     func(ctx context.Context, b benchprogs.Benchmark, scale int) (*trace.Stream, error)
	metrics *metrics

	mu      sync.Mutex
	entries map[streamKey]*memoEntry // guarded by mu
	held    int                      // guarded by mu; refs across kept streams
	clock   uint64                   // guarded by mu; ticks on every lookup
}

func newStreamMemo(budget int, m *metrics) *streamMemo {
	return &streamMemo{
		budget:  budget,
		gen:     generateStream,
		metrics: m,
		entries: make(map[streamKey]*memoEntry),
	}
}

// generateStream runs a benchprog on the VM with a trace collector and
// preprocesses the trace: the work the memo saves.
func generateStream(ctx context.Context, b benchprogs.Benchmark, scale int) (*trace.Stream, error) {
	t, err := benchprogs.TraceCtx(ctx, b, scale)
	if err != nil {
		return nil, fmt.Errorf("generating %s trace: %w", b.Name, err)
	}
	return trace.Preprocess(t), nil
}

// get returns the stream of b at scale. Each lookup counts as a hit when
// the stream is kept or already being generated, and as a miss when it
// starts a generation.
func (m *streamMemo) get(ctx context.Context, b benchprogs.Benchmark, scale int) (*trace.Stream, error) {
	k := streamKey{b.Name, scale}
	for {
		m.mu.Lock()
		e, ok := m.entries[k]
		if !ok {
			e = &memoEntry{done: make(chan struct{})}
			m.entries[k] = e
			m.mu.Unlock()
			m.metrics.add("smalld_stream_memo_misses_total", 1)
			return m.generate(ctx, k, b, e)
		}
		m.clock++
		e.used = m.clock
		m.mu.Unlock()
		m.metrics.add("smalld_stream_memo_hits_total", 1)
		select {
		case <-e.done:
			if e.st != nil {
				return e.st, nil
			}
			// The generation failed or its requester went away; try
			// again under this request's own context.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// generate runs e's generation and publishes its outcome, also when the
// generator panics, so that no waiter is left blocked on e.
func (m *streamMemo) generate(ctx context.Context, k streamKey, b benchprogs.Benchmark, e *memoEntry) (st *trace.Stream, err error) {
	defer func() {
		m.mu.Lock()
		if err == nil && st != nil {
			m.keepLocked(k, e, st)
		} else {
			delete(m.entries, k)
		}
		m.mu.Unlock()
		close(e.done)
	}()
	return m.gen(ctx, b, k.scale)
}

// keepLocked publishes st in e, first dropping the least recently used
// kept streams until st fits. A stream larger than the whole budget is
// published to e's waiters but leaves the memo.
func (m *streamMemo) keepLocked(k streamKey, e *memoEntry, st *trace.Stream) {
	n := len(st.Refs)
	if n > m.budget {
		e.st = st
		delete(m.entries, k)
		return
	}
	for m.held+n > m.budget {
		var lru streamKey
		var oldest *memoEntry
		for kk, o := range m.entries {
			if o.st != nil && (oldest == nil || o.used < oldest.used) {
				lru, oldest = kk, o
			}
		}
		m.held -= len(oldest.st.Refs)
		delete(m.entries, lru)
	}
	e.st = st
	m.clock++
	e.used = m.clock
	m.held += n
}

// heldRefs reports the refs across memoized streams.
func (m *streamMemo) heldRefs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.held)
}

// resolveStream produces the reference stream for a sim job, either from
// the built-in stream memo, whose generation stops once ctx is done, or
// by decoding a user-supplied payload through the hardened decoders.
// The second return is the number of user payload bytes decoded (0 for
// built-in benchmarks).
func resolveStream(ctx context.Context, memo *streamMemo, req *SimRequest) (*trace.Stream, int64, error) {
	switch {
	case len(req.TraceData) > 0:
		t, st, err := trace.ReadAuto(bytes.NewReader(req.TraceData))
		if err != nil {
			return nil, 0, badRequestf("bad trace_data: %v", err)
		}
		if st == nil {
			st = trace.Preprocess(t)
		}
		if len(st.Refs) == 0 {
			return nil, 0, badRequestf("trace_data decodes to zero events")
		}
		return st, int64(len(req.TraceData)), nil
	case req.TraceText != "":
		t, err := trace.Read(strings.NewReader(req.TraceText))
		if err != nil {
			return nil, 0, badRequestf("bad trace_text: %v", err)
		}
		if len(t.Events) == 0 {
			return nil, 0, badRequestf("trace_text decodes to zero events")
		}
		return trace.Preprocess(t), int64(len(req.TraceText)), nil
	case req.Trace != "":
		b, ok := benchprogs.ByName(req.Trace)
		if !ok {
			names := make([]string, 0, len(benchprogs.All()))
			for _, bb := range benchprogs.All() {
				names = append(names, bb.Name)
			}
			return nil, 0, badRequestf("unknown trace %q (want one of %s)", req.Trace, strings.Join(names, ", "))
		}
		scale := req.Scale
		if scale <= 0 {
			scale = 2
		}
		if scale > maxTraceScale {
			return nil, 0, badRequestf("scale %d exceeds the built-in trace cap of %d", scale, maxTraceScale)
		}
		st, err := memo.get(ctx, b, scale)
		if err != nil {
			return nil, 0, err
		}
		return st, 0, nil
	default:
		return nil, 0, badRequestf("one of trace, trace_text, or trace_data is required")
	}
}

// runSim executes a sim job under ctx, fanning multi-point requests out
// through the parsweep engine.
func runSim(ctx context.Context, memo *streamMemo, req *SimRequest) (*SimResponse, error) {
	st, decoded, err := resolveStream(ctx, memo, req)
	if err != nil {
		return nil, err
	}
	points := req.Points
	if len(points) == 0 {
		points = []SimPoint{req.Point}
	}
	const maxPoints = 4096
	if len(points) > maxPoints {
		return nil, badRequestf("%d points exceeds the %d-point job ceiling", len(points), maxPoints)
	}
	params := make([]sim.Params, len(points))
	for i, pt := range points {
		if params[i], err = pt.params(); err != nil {
			return nil, badRequestf("point %d: %v", i, err)
		}
	}
	results, err := parsweep.MapCtx(ctx, len(points), func(i int) (SimResult, error) {
		r, err := sim.RunCtx(ctx, st, params[i])
		if err != nil {
			return SimResult{}, fmt.Errorf("point %d: %w", i, err)
		}
		return wireResult(r), nil
	})
	if err != nil {
		return nil, err
	}
	resp := &SimResponse{Trace: st.Name, Results: results, decodedBytes: decoded}
	if len(results) > 0 {
		resp.Events = results[0].Events
	}
	return resp, nil
}

// ExperimentRequest runs one thesis experiment by ID.
type ExperimentRequest struct {
	Scale int `json:"scale,omitempty"`
	Seeds int `json:"seeds,omitempty"`
}

// ExperimentResponse carries the regenerated report.
type ExperimentResponse struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// experimentIDs lists the runnable experiment identifiers.
func experimentIDs() []string {
	all := experiments.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// runExperiment regenerates one table/figure under ctx; the runner's
// sweeps all stop when ctx dies.
func runExperiment(ctx context.Context, id string, req *ExperimentRequest) (*ExperimentResponse, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, badRequestf("unknown experiment %q (GET /v1/experiments for the list)", id)
	}
	if req.Scale > maxTraceScale {
		return nil, badRequestf("scale %d exceeds the built-in trace cap of %d", req.Scale, maxTraceScale)
	}
	r := experiments.NewRunnerCtx(ctx, experiments.Config{Scale: req.Scale, Seeds: req.Seeds})
	rep, err := e.Run(r)
	if err != nil {
		return nil, err
	}
	return &ExperimentResponse{ID: rep.ID, Title: rep.Title, Text: rep.Text}, nil
}
