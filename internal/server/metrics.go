package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/stats"
)

// latencyBounds are the request-latency bucket upper bounds in seconds.
// Session evals sit in the low buckets; multi-point sweeps reach the top.
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

// gaugeFunc is a live gauge sampled at render time (queue depth, busy
// workers, active sessions) rather than counted into the registry.
type gaugeFunc struct {
	name, help string
	fn         func() int64
}

// metrics is the hand-rolled Prometheus registry for smalld. Counters
// and histograms accumulate under one mutex; gauges are callbacks into
// the live structures. The text exposition is deterministic (sorted
// label values) so it can be golden-tested.
type metrics struct {
	mu       sync.Mutex
	requests map[string]map[int]int64  // guarded by mu; route -> status code -> count
	latency  map[string]*stats.Buckets // guarded by mu; route -> seconds histogram
	counters map[string]int64          // guarded by mu; flat counters by metric name
	gauges   []gaugeFunc               // guarded by mu
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[int]int64),
		latency:  make(map[string]*stats.Buckets),
		counters: make(map[string]int64),
	}
}

// addGauge registers a live gauge callback.
func (m *metrics) addGauge(name, help string, fn func() int64) {
	m.mu.Lock()
	m.gauges = append(m.gauges, gaugeFunc{name, help, fn})
	m.mu.Unlock()
}

// observeRequest records one completed request: its route, final status
// code, and wall-clock seconds.
func (m *metrics) observeRequest(route string, code int, seconds float64) {
	m.mu.Lock()
	byCode := m.requests[route]
	if byCode == nil {
		byCode = make(map[int]int64)
		m.requests[route] = byCode
	}
	byCode[code]++
	h := m.latency[route]
	if h == nil {
		h = stats.NewBuckets(latencyBounds)
		m.latency[route] = h
	}
	h.Observe(seconds)
	m.mu.Unlock()
}

// add bumps a flat counter.
func (m *metrics) add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// counterHelp documents the flat counters that may appear; keeping the
// inventory here keeps /metrics self-describing.
var counterHelp = map[string]string{
	"smalld_queue_rejected_total":     "requests rejected with 429 because the admission queue was full",
	"smalld_requests_canceled_total":  "requests whose client went away before a response was written",
	"smalld_panics_total":             "request handlers recovered from a panic",
	"smalld_sessions_created_total":   "sessions created",
	"smalld_sessions_expired_total":   "sessions expired by the idle janitor",
	"smalld_sessions_closed_total":    "sessions deleted by clients",
	"smalld_evals_total":              "session eval requests executed",
	"smalld_eval_steps_total":         "interpreter steps consumed by session evals",
	"smalld_sim_points_total":         "simulation points executed by /v1/sim jobs",
	"smalld_trace_decode_bytes_total": "bytes of user-supplied trace payloads (text, binary, or refs) decoded by /v1/sim jobs",
	"smalld_stream_memo_hits_total":   "built-in /v1/sim trace lookups served by the stream memo: kept, or already being generated",
	"smalld_stream_memo_misses_total": "built-in /v1/sim trace lookups that generated and preprocessed the stream",
	"smalld_ingest_bytes_total":       "raw trace bytes accepted into ingest staging",
	"smalld_ingest_segments_total":    "trace segments staged by ingest pushes",
	"smalld_ingest_rejected_total":    "ingest pushes rejected (rate limit, quota, or malformed segment)",
	"smalld_ingest_jobs_total":        "sharded ingest replay jobs completed",
	"smalld_ingest_shards_total":      "ingest shards replayed on this node",
	"smalld_lpt_hits_total":           "cumulative LPT hits across session machines and simulation jobs",
	"smalld_lpt_misses_total":         "cumulative LPT misses across session machines and simulation jobs",
	"smalld_lpt_refops_total":         "cumulative LPT reference-count operations across session machines and simulation jobs",
}

// render writes the Prometheus text exposition format.
func (m *metrics) render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP smalld_requests_total completed HTTP requests")
	fmt.Fprintln(w, "# TYPE smalld_requests_total counter")
	for _, route := range sortedKeys(m.requests) {
		byCode := m.requests[route]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "smalld_requests_total{route=%q,code=\"%d\"} %d\n", route, c, byCode[c])
		}
	}

	fmt.Fprintln(w, "# HELP smalld_request_seconds request latency")
	fmt.Fprintln(w, "# TYPE smalld_request_seconds histogram")
	for _, route := range sortedKeys(m.latency) {
		h := m.latency[route]
		cum := h.Cumulative()
		for i, bound := range h.Bounds() {
			fmt.Fprintf(w, "smalld_request_seconds_bucket{route=%q,le=%q} %d\n",
				route, formatBound(bound), cum[i])
		}
		fmt.Fprintf(w, "smalld_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, cum[len(cum)-1])
		fmt.Fprintf(w, "smalld_request_seconds_sum{route=%q} %g\n", route, h.Sum())
		fmt.Fprintf(w, "smalld_request_seconds_count{route=%q} %d\n", route, h.Count())
	}

	for _, name := range sortedKeys(m.counters) {
		if help, ok := counterHelp[name]; ok {
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		fmt.Fprintf(w, "%s %d\n", name, m.counters[name])
	}

	for _, g := range m.gauges {
		fmt.Fprintf(w, "# HELP %s %s\n", g.name, g.help)
		fmt.Fprintf(w, "# TYPE %s gauge\n", g.name)
		fmt.Fprintf(w, "%s %d\n", g.name, g.fn())
	}
}

// formatBound prints a bucket bound the Prometheus way (no exponent for
// these magnitudes, no trailing zeros).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
