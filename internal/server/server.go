// Package server is smalld's serving layer: it exposes the SMALL machine
// over HTTP as a memory-access service. The thesis frames the LP as a
// service answering list requests on behalf of an EP (§4.3); here that
// protocol is scaled up to the network — long-lived Lisp *sessions* play
// the persistent EP, and stateless *simulation jobs* replay Chapter 5
// sweeps on demand, fanned out through the shared parsweep engine.
//
// The layer is production-shaped: admission goes through one bounded
// queue with explicit backpressure (429 + Retry-After when full), every
// request carries a deadline and its cancellation reaches the eval and
// replay loops, a fixed worker pool sized off GOMAXPROCS executes the
// work (sweeps inside a job borrow parsweep's global helper budget, so
// service concurrency and sweep concurrency share one ceiling), panics
// are isolated per request, shutdown drains in-flight work, and
// /metrics exports Prometheus text.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dml"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// Config parameterises a Server. Zero values take production-shaped
// defaults.
type Config struct {
	// QueueDepth bounds the admission queue (default 64). A full queue
	// rejects with 429 + Retry-After.
	QueueDepth int
	// Workers sizes the execution pool (default GOMAXPROCS). Sweeps
	// running inside jobs claim extra helpers from the parsweep budget;
	// both pools derive from GOMAXPROCS so the machine is never
	// oversubscribed by more than 2x under full load.
	Workers int
	// RequestTimeout is the per-request execution deadline (default 60s).
	RequestTimeout time.Duration
	// SessionTTL expires sessions idle longer than this (default 10m).
	SessionTTL time.Duration
	// MaxSessions caps live sessions (default 1024).
	MaxSessions int
	// Ingest bounds the streaming-ingest staging area; zero-valued
	// fields take the ingest package defaults (64 MiB per tenant, 64
	// tenants, 256 segments, rate limiting off).
	Ingest ingest.Limits
	// CacheDir, when set, lands completed ingest jobs in the
	// experiments disk-cache layout under CacheDir/ingest/.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return c
}

// Server is the smalld service.
type Server struct {
	cfg        Config
	queue      *queue
	sessions   *sessions
	staging    *ingest.Staging
	streams    *streamMemo // preprocessed built-in traces for /v1/sim
	cacheDir   string
	metrics    *metrics
	mux        *http.ServeMux
	janitor    chan struct{} // closed to stop the expiry loop
	dmlWorker  *dml.Worker   // serves the distributed-Multilisp verbs
	dmlSpawner *dml.Spawner  // local coordinator backing dml sessions
}

// New builds a Server and starts its worker pool and session janitor.
// Call Shutdown to stop them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	s := &Server{
		cfg:      cfg,
		metrics:  m,
		sessions: newSessions(cfg.SessionTTL, cfg.MaxSessions, m),
		staging:  ingest.NewStaging(cfg.Ingest),
		streams:  newStreamMemo(streamBudget, m),
		cacheDir: cfg.CacheDir,
		janitor:  make(chan struct{}),
	}
	s.queue = newQueue(cfg.QueueDepth, cfg.Workers, func() { m.add("smalld_panics_total", 1) })
	s.dmlWorker = dml.NewWorker(dml.WorkerConfig{Parallel: cfg.Workers})
	s.dmlSpawner = dml.NewSpawner(dml.NewLocalLink("local", s.dmlWorker))
	s.sessions.dmlSpawner = s.dmlSpawner
	m.addGauge("smalld_queue_depth", "tasks admitted and waiting for a worker", s.queue.depth.Load)
	m.addGauge("smalld_workers_busy", "workers currently executing a task", s.queue.busy.Load)
	m.addGauge("smalld_sessions_active", "live sessions", s.sessions.active)
	m.addGauge("smalld_ingest_staging_bytes", "bytes currently staged across ingest tenants", s.staging.StagedBytes)
	m.addGauge("smalld_ingest_tenants", "ingest tenants with staging state", func() int64 { return int64(s.staging.TenantCount()) })
	m.addGauge("smalld_stream_memo_refs", fmt.Sprintf("refs held by the memo of built-in /v1/sim streams (budget %d)", streamBudget), s.streams.heldRefs)
	m.addGauge("smalld_dml_objects_live", "future objects registered and not yet freed", func() int64 { return int64(s.dmlWorker.Table().Live()) })
	m.addGauge("smalld_dml_outstanding_weight", "reference weight recorded across live future objects", s.dmlWorker.Table().OutstandingWeight)
	m.addGauge("smalld_dml_spawns", "futures spawned on this worker", func() int64 { return s.dmlWorker.Stats().Spawns })
	m.addGauge("smalld_dml_touches", "future touches served by this worker", func() int64 { return s.dmlWorker.Stats().Touches })
	m.addGauge("smalld_dml_decs_applied", "weight-decrement entries applied by this worker", func() int64 { return s.dmlWorker.Stats().DecsApplied })
	m.addGauge("smalld_dml_spawn_rejected", "spawns rejected for a full evaluation backlog", func() int64 { return s.dmlWorker.Stats().SpawnRejected })

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("POST /v1/sessions", s.instrument("/v1/sessions:create", s.handleSessionCreate))
	mux.Handle("GET /v1/sessions", s.instrument("/v1/sessions:list", s.handleSessionList))
	mux.Handle("GET /v1/sessions/{id}", s.instrument("/v1/sessions:get", s.handleSessionGet))
	mux.Handle("DELETE /v1/sessions/{id}", s.instrument("/v1/sessions:delete", s.handleSessionDelete))
	mux.Handle("POST /v1/sessions/{id}/eval", s.instrument("/v1/sessions:eval", s.handleSessionEval))
	mux.Handle("POST /v1/sim", s.instrument("/v1/sim", s.handleSim))
	mux.Handle("POST /v1/ingest/{tenant}", s.instrument("/v1/ingest:push", s.handleIngestPush))
	mux.Handle("GET /v1/ingest/{tenant}", s.instrument("/v1/ingest:status", s.handleIngestStatus))
	mux.Handle("DELETE /v1/ingest/{tenant}", s.instrument("/v1/ingest:drop", s.handleIngestDrop))
	mux.Handle("POST /v1/ingest/{tenant}/run", s.instrument("/v1/ingest:run", s.handleIngestRun))
	mux.Handle("POST /v1/ingest/{tenant}/stream", s.instrument("/v1/ingest:stream", s.handleIngestStream))
	mux.Handle("POST /v1/shard-replay", s.instrument("/v1/shard-replay", s.handleShardReplay))
	mux.Handle("POST /v1/dml/spawn", s.instrument("/v1/dml:spawn", s.handleDMLSpawn))
	mux.Handle("POST /v1/dml/touch", s.instrument("/v1/dml:touch", s.handleDMLTouch))
	mux.Handle("POST /v1/dml/dec", s.instrument("/v1/dml:dec", s.handleDMLDec))
	mux.Handle("GET /v1/experiments", s.instrument("/v1/experiments:list", s.handleExperimentList))
	mux.Handle("POST /v1/experiments/{id}", s.instrument("/v1/experiments:run", s.handleExperimentRun))
	s.mux = mux

	go s.janitorLoop()
	return s
}

// Handler returns the service's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: admission stops, queued and in-flight
// tasks run to completion, the janitor exits. The caller is responsible
// for shutting the http.Server down *first* so no handler is mid-submit.
func (s *Server) Shutdown() {
	s.queue.close()
	s.dmlSpawner.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s.dmlWorker.Drain(ctx)
	cancel()
	select {
	case <-s.janitor:
	default:
		close(s.janitor)
	}
}

func (s *Server) janitorLoop() {
	tick := time.NewTicker(s.cfg.SessionTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.janitor:
			return
		case now := <-tick.C:
			s.sessions.sweepIdle(now)
		}
	}
}

// statusWriter captures the final status code for metrics and whether a
// response has started, so the queued-work handlers can tell if dispatch
// already answered (429/499/500).
type statusWriter struct {
	http.ResponseWriter
	code        int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.code = code
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.code = http.StatusOK
		w.wroteHeader = true
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with latency/status accounting and panic
// isolation for the non-queued path.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.add("smalld_panics_total", 1)
				if !sw.wroteHeader {
					httpError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
				}
			}
			s.metrics.observeRequest(route, sw.code, time.Since(start).Seconds())
		}()
		h(sw, r)
	})
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeJSON reads a request body strictly; unknown fields are errors so
// typos in sweep parameters fail loudly instead of silently simulating
// the defaults.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// decodeSimRequest reads a /v1/sim body, which is either the JSON
// envelope or a raw trace upload: a Content-Type of application/x-smtb
// or application/x-smrs — or a body leading with either format's magic
// — is taken whole as the trace payload of an otherwise-default
// request, so `curl --data-binary @trace.btrace` works without the
// base64 trace_data wrapping. Raw payloads flow through the same
// hardened resolveStream path as trace_data and land in the same
// decode-bytes counter.
func decodeSimRequest(r *http.Request, req *SimRequest) error {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 16<<20))
	if err != nil {
		return err
	}
	ct := r.Header.Get("Content-Type")
	if ct == "application/x-smtb" || ct == "application/x-smrs" || trace.Sniff(body) != "text" {
		req.TraceData = body
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// dispatch pushes work through the admission queue and waits for it. It
// owns the whole backpressure/cancellation protocol:
//
//   - queue full → 429 with Retry-After, the explicit backpressure signal;
//   - client gone while queued → the worker skips the task;
//   - client gone while running → fn's ctx cancels, the eval/sweep loops
//     unwind, and the 499-class outcome is counted in metrics;
//   - fn panics → isolated, 500.
//
// fn must deposit its result via the respond callback and never touch
// the ResponseWriter itself.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	t := &task{ctx: ctx, fn: fn, done: make(chan struct{})}
	if !s.queue.submit(t) {
		s.metrics.add("smalld_queue_rejected_total", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		return
	}
	<-t.done
	switch {
	case t.panicked != "":
		httpError(w, http.StatusInternalServerError, "internal error (request isolated)")
	case t.skipped, r.Context().Err() != nil:
		// The client is gone; the response goes nowhere, but record the
		// outcome (499 is the de-facto "client closed request" code).
		s.metrics.add("smalld_requests_canceled_total", 1)
		httpError(w, 499, "client closed request")
	}
}

// retryAfterSeconds estimates a rejected client's wait from the actual
// load: the tasks ahead of it (queued plus running) spread across the
// worker pool, at roughly a second per slot, with a second of jitter so
// a burst of rejected clients does not return in lockstep and re-collide.
// Clamped to [1, 30] so the header is always a positive integer and
// never tells a client to go away for minutes on a transient spike.
func (s *Server) retryAfterSeconds() int {
	ahead := int(s.queue.depth.Load() + s.queue.busy.Load())
	secs := (ahead + s.cfg.Workers - 1) / s.cfg.Workers // ceil(ahead/workers)
	secs += rand.Intn(2)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// --- handlers ---

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w)
}

// SessionCreateRequest makes a session.
type SessionCreateRequest struct {
	// ID optionally names the session (1-64 chars of [a-zA-Z0-9._-]);
	// empty assigns a server-local ID. The cluster gateway sets this so
	// the session lands on the worker its ID hashes to.
	ID        string `json:"id,omitempty"`
	Backend   string `json:"backend,omitempty"`    // "vm" (default), "lisp", "small", or "dml"
	StepLimit int64  `json:"step_limit,omitempty"` // per-eval budget
	TableSize int    `json:"table_size,omitempty"` // small/vm backend LPT entries
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	sess, err := s.sessions.create(req.ID, req.Backend, req.StepLimit, req.TableSize)
	switch {
	case errors.Is(err, errSessionLimit):
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit (%d) reached", s.cfg.MaxSessions))
		return
	case errors.Is(err, errSessionExists):
		httpError(w, http.StatusConflict, fmt.Sprintf("session %q already exists", req.ID))
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.sessions.list()})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.delete(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// SessionEvalRequest evaluates one expression in a session.
type SessionEvalRequest struct {
	Expr string `json:"expr"`
}

func (s *Server) handleSessionEval(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	var req SessionEvalRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Expr == "" {
		httpError(w, http.StatusBadRequest, "expr is required")
		return
	}
	var res EvalResult
	s.dispatch(w, r, func(ctx context.Context) {
		res = sess.eval(ctx, req.Expr)
		hits, misses, refops := sess.machineDelta()
		s.metrics.add("smalld_evals_total", 1)
		s.metrics.add("smalld_eval_steps_total", res.Steps)
		s.metrics.add("smalld_lpt_hits_total", hits)
		s.metrics.add("smalld_lpt_misses_total", misses)
		s.metrics.add("smalld_lpt_refops_total", refops)
	})
	s.finishJob(w, res, nil)
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := decodeSimRequest(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var (
		resp *SimResponse
		err  error
	)
	s.dispatch(w, r, func(ctx context.Context) {
		resp, err = runSim(ctx, s.streams, &req)
		if resp != nil {
			var hits, misses, refops int64
			for _, res := range resp.Results {
				hits += res.LPTHits
				misses += res.LPTMisses
				refops += res.Refops
			}
			s.metrics.add("smalld_sim_points_total", int64(len(resp.Results)))
			if resp.decodedBytes > 0 {
				s.metrics.add("smalld_trace_decode_bytes_total", resp.decodedBytes)
			}
			s.metrics.add("smalld_lpt_hits_total", hits)
			s.metrics.add("smalld_lpt_misses_total", misses)
			s.metrics.add("smalld_lpt_refops_total", refops)
		}
	})
	s.finishJob(w, resp, err)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": experimentIDs()})
}

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	id := r.PathValue("id")
	var (
		resp *ExperimentResponse
		err  error
	)
	s.dispatch(w, r, func(ctx context.Context) {
		resp, err = runExperiment(ctx, id, &req)
	})
	s.finishJob(w, resp, err)
}

// finishJob writes a queued job's outcome unless dispatch already
// answered (429/499/500).
func (s *Server) finishJob(w http.ResponseWriter, resp any, err error) {
	if wrote(w) {
		return
	}
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		httpError(w, http.StatusBadRequest, bad.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.metrics.add("smalld_requests_canceled_total", 1)
		httpError(w, http.StatusGatewayTimeout, "request cancelled or timed out: "+err.Error())
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// wrote reports whether a response has already been written through the
// instrumented writer.
func wrote(w http.ResponseWriter) bool {
	sw, ok := w.(*statusWriter)
	return ok && sw.wroteHeader
}
