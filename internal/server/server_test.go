package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// loopExpr spins until the step budget or the request context stops it.
const loopExpr = "(prog (i) (setq i 0) loop (setq i (add1 i)) (go loop))"

// tinyTrace is a minimal valid trace for fast sim jobs through the
// user-supplied decoder path.
const tinyTrace = "# trace tiny\n" +
	"E\t1\tf\t1\n" +
	"P\t1\tcons\t(a b)\t(b)\ta\n" +
	"P\t1\tcar\ta\t(a b)\n" +
	"P\t1\tcdr\t(b)\t(a b)\n" +
	"X\t1\tf\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Shutdown()
	})
	return s, hs
}

func doJSON(t *testing.T, method, url string, body, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSessionLifecycle: create → eval (state persists across evals) →
// stats → delete → gone.
func TestSessionLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	var info SessionInfo
	resp := doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{Backend: "lisp"}, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if info.ID == "" || info.Backend != BackendLisp {
		t.Fatalf("create: %+v", info)
	}
	base := hs.URL + "/v1/sessions/" + info.ID

	var res EvalResult
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(defun twice (x) (cons x (cons x nil)))"}, &res)
	if res.Error != "" {
		t.Fatalf("defun: %s", res.Error)
	}
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(twice 'a)"}, &res)
	if res.Error != "" || res.Value != "(a a)" {
		t.Fatalf("call: %+v", res)
	}
	if res.Steps <= 0 {
		t.Fatalf("steps not reported: %+v", res)
	}
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(print (twice 'b))"}, &res)
	if !strings.Contains(res.Output, "(b b)") {
		t.Fatalf("print output not captured: %+v", res)
	}

	doJSON(t, "GET", base, nil, &info)
	if info.Evals != 3 || info.Steps <= 0 {
		t.Fatalf("stats: %+v", info)
	}

	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	doJSON(t, "GET", hs.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != info.ID {
		t.Fatalf("list: %+v", list)
	}

	if resp := doJSON(t, "DELETE", base, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", base, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
}

// TestSmallBackendExposesMachine: a session on the small backend reports
// live LPT counters, and evals feed the service-wide LPT metrics.
func TestSmallBackendExposesMachine(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	var info SessionInfo
	doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{Backend: "small", TableSize: 512}, &info)
	base := hs.URL + "/v1/sessions/" + info.ID

	var res EvalResult
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(cdr (cons 'a '(b c)))"}, &res)
	if res.Error != "" || res.Value != "(b c)" {
		t.Fatalf("eval: %+v", res)
	}

	doJSON(t, "GET", base, nil, &info)
	if info.Machine == nil {
		t.Fatal("small session missing machine stats")
	}
	if info.Machine.Refops <= 0 || info.Machine.Gets <= 0 {
		t.Fatalf("machine counters empty: %+v", *info.Machine)
	}

	body := getText(t, hs.URL+"/metrics")
	for _, want := range []string{"smalld_lpt_refops_total", "smalld_evals_total 1", "smalld_sessions_active 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestVMBackendSession: the bytecode-VM backend keeps definitions and
// globals across evals, reports live LPT counters, and turns budget
// exhaustion into an in-band error that leaves the session usable.
func TestVMBackendSession(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	var info SessionInfo
	doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{Backend: "vm", TableSize: 512}, &info)
	if info.Backend != BackendVM {
		t.Fatalf("create: %+v", info)
	}
	base := hs.URL + "/v1/sessions/" + info.ID

	var res EvalResult
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(def twice (lambda (x) (cons x (cons x nil))))"}, &res)
	if res.Error != "" {
		t.Fatalf("def: %+v", res)
	}
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(twice 'a)"}, &res)
	if res.Error != "" || res.Value != "(a a)" {
		t.Fatalf("call across evals: %+v", res)
	}
	if res.Steps <= 0 {
		t.Fatalf("steps not reported: %+v", res)
	}
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(setq g (twice 'b))"}, &res)
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(car g)"}, &res)
	if res.Error != "" || res.Value != "b" {
		t.Fatalf("global across evals: %+v", res)
	}

	doJSON(t, "GET", base, nil, &info)
	if info.Machine == nil {
		t.Fatal("vm session missing machine stats")
	}
	if info.Machine.Refops <= 0 || info.Machine.Gets <= 0 {
		t.Fatalf("machine counters empty: %+v", *info.Machine)
	}

	var bres EvalResult
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: loopExpr}, &bres)
	if !strings.Contains(bres.Error, "step limit") {
		t.Fatalf("want step limit error, got %+v", bres)
	}
	var after EvalResult
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(add1 1)"}, &after)
	if after.Error != "" || after.Value != "2" {
		t.Fatalf("after budget hit: %+v", after)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStepBudget: a hostile looping expression terminates with an in-band
// budget error and the session survives.
func TestStepBudget(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	var info SessionInfo
	doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{StepLimit: 20_000}, &info)
	base := hs.URL + "/v1/sessions/" + info.ID

	var res EvalResult
	resp := doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: loopExpr}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(res.Error, "step limit") {
		t.Fatalf("want step limit error, got %+v", res)
	}
	// Session still serves. (Fresh struct: omitted JSON fields don't
	// overwrite stale values from the previous decode.)
	var res2 EvalResult
	doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(add1 1)"}, &res2)
	if res2.Error != "" || res2.Value != "2" {
		t.Fatalf("after budget hit: %+v", res2)
	}
}

// TestBackpressure: with one worker and a one-deep queue, a third
// concurrent request is rejected with 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	var info SessionInfo
	doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{StepLimit: 1 << 40}, &info)
	base := hs.URL + "/v1/sessions/" + info.ID

	// A occupies the only worker until its client disconnects.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(SessionEvalRequest{Expr: loopExpr})
		req, _ := http.NewRequestWithContext(ctxA, "POST", base+"/eval", bytes.NewReader(body))
		_, err := http.DefaultClient.Do(req)
		errA <- err
	}()
	waitFor(t, "worker busy", func() bool { return s.queue.busy.Load() == 1 })

	// B fills the queue's single slot.
	resB := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(SessionEvalRequest{Expr: "(car '(a))"})
		resp, err := http.Post(base+"/eval", "application/json", bytes.NewReader(body))
		if err == nil {
			resB <- resp
		}
	}()
	waitFor(t, "queue full", func() bool { return s.queue.depth.Load() == 1 })

	// C must bounce immediately.
	var resC *http.Response
	for i := 0; i < 50; i++ {
		body, _ := json.Marshal(SessionEvalRequest{Expr: "(car '(a))"})
		resC, _ = http.Post(base+"/eval", "application/json", bytes.NewReader(body))
		if resC != nil && resC.StatusCode == http.StatusTooManyRequests {
			break
		}
		// B may not have been enqueued yet on this iteration's view;
		// retry briefly.
		time.Sleep(2 * time.Millisecond)
	}
	if resC == nil || resC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %+v", resC)
	}
	// The hint is computed from live load, so all the contract promises
	// is a well-formed positive integer.
	if secs, err := strconv.Atoi(resC.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("429 Retry-After %q: want an integer >= 1 (err %v)",
			resC.Header.Get("Retry-After"), err)
	}
	resC.Body.Close()

	// Freeing the worker lets B complete normally.
	cancelA()
	<-errA
	select {
	case resp := <-resB:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("B: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("B never completed after worker freed")
	}

	body := getText(t, hs.URL+"/metrics")
	if !strings.Contains(body, "smalld_queue_rejected_total") {
		t.Fatalf("metrics missing rejection counter:\n%s", body)
	}
}

// TestCancellationStopsSweep: killing the client mid-sweep cancels the
// underlying parsweep work — the workers go idle long before the sweep
// could have finished, and the cancellation is counted.
func TestCancellationStopsSweep(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// A big multi-point sweep over a long user-supplied trace: enough
	// total work that running it all takes far longer than the test waits,
	// so an early idle queue proves the cancel propagated.
	var tb strings.Builder
	tb.WriteString("E\t1\tf\t1\n")
	for i := 0; i < 30_000; i++ {
		tb.WriteString("P\t1\tcons\t(a b)\t(b)\ta\nP\t1\tcar\ta\t(a b)\n")
	}
	tb.WriteString("X\t1\tf\n")
	points := make([]SimPoint, 2000)
	for i := range points {
		points[i] = SimPoint{TableSize: 64, Seed: int64(i + 1), CacheEntries: 64, CacheLineSize: 4}
	}
	reqBody, _ := json.Marshal(SimRequest{TraceText: tb.String(), Points: points})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/sim", bytes.NewReader(reqBody))
		http.DefaultClient.Do(req)
	}()
	waitFor(t, "sweep running", func() bool { return s.queue.busy.Load() >= 1 })
	cancel()
	<-done

	waitFor(t, "workers idle after cancel", func() bool { return s.queue.busy.Load() == 0 })
	waitFor(t, "cancellation counted", func() bool {
		s.metrics.mu.Lock()
		defer s.metrics.mu.Unlock()
		return s.metrics.counters["smalld_requests_canceled_total"] >= 1
	})
}

// TestSimJob: a single-point job and a multi-point sweep both answer
// with per-point LPT results.
func TestSimJob(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	var resp SimResponse
	r := doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{
		TraceText: tinyTrace,
		Point:     SimPoint{TableSize: 128, Seed: 7},
	}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(resp.Results) != 1 || resp.Results[0].Events == 0 {
		t.Fatalf("results: %+v", resp)
	}

	r = doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{
		TraceText: tinyTrace,
		Points: []SimPoint{
			{TableSize: 64, Seed: 1},
			{TableSize: 64, Seed: 2, Policy: "all", Decrement: "recursive", Split: true},
			{TableSize: 64, Seed: 3, CacheEntries: 64, CacheLineSize: 2},
		},
	}, &resp)
	if r.StatusCode != http.StatusOK || len(resp.Results) != 3 {
		t.Fatalf("sweep: status %d results %d", r.StatusCode, len(resp.Results))
	}
	if resp.Results[2].CacheHits+resp.Results[2].CacheMisses == 0 {
		t.Fatalf("cache point has no cache stats: %+v", resp.Results[2])
	}
}

// TestSimJobTraceData: binary and reference-stream payloads run through
// trace_data, give the same results as the equivalent text trace, and
// the decoded bytes show up in /metrics.
func TestSimJobTraceData(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	tr, err := trace.Read(strings.NewReader(tinyTrace))
	if err != nil {
		t.Fatal(err)
	}
	var bin, refs bytes.Buffer
	if err := trace.WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteStream(&refs, trace.Preprocess(tr)); err != nil {
		t.Fatal(err)
	}

	point := SimPoint{TableSize: 128, Seed: 7}
	var want SimResponse
	doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{TraceText: tinyTrace, Point: point}, &want)

	// The TraceText baseline above counts toward the decode-bytes metric
	// too; rejected payloads below do not (they fail before decoding).
	decoded := int64(len(tinyTrace))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"text", []byte(tinyTrace)},
		{"binary", bin.Bytes()},
		{"refs", refs.Bytes()},
	} {
		var resp SimResponse
		r := doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{TraceData: c.data, Point: point}, &resp)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, r.StatusCode)
		}
		if len(resp.Results) != 1 || resp.Results[0] != want.Results[0] {
			t.Fatalf("%s: results diverge from text trace:\n got %+v\nwant %+v",
				c.name, resp.Results, want.Results)
		}
		decoded += int64(len(c.data))
	}

	// Corrupt binary payloads are client errors with a byte offset.
	var eb errorBody
	r := doJSON(t, "POST", hs.URL+"/v1/sim",
		SimRequest{TraceData: bin.Bytes()[:8], Point: point}, &eb)
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "offset ") {
		t.Fatalf("truncated payload: status %d error %q", r.StatusCode, eb.Error)
	}

	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	want2 := fmt.Sprintf("smalld_trace_decode_bytes_total %d", decoded)
	if !strings.Contains(string(body), want2) {
		t.Fatalf("/metrics missing %q:\n%s", want2, body)
	}
}

// TestSimBadRequests: client errors come back 400 with a useful message,
// including decoder line numbers for malformed traces.
func TestSimBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		req  SimRequest
		want string
	}{
		{SimRequest{}, "trace"},
		{SimRequest{Trace: "nosuch"}, "unknown trace"},
		{SimRequest{TraceText: "E\t1\tf\n"}, "line 1"},
		{SimRequest{TraceText: tinyTrace, Point: SimPoint{Policy: "bogus"}}, "unknown policy"},
		{SimRequest{TraceText: tinyTrace, Point: SimPoint{Decrement: "bogus"}}, "unknown decrement"},
	}
	for _, c := range cases {
		var eb errorBody
		resp := doJSON(t, "POST", hs.URL+"/v1/sim", c.req, &eb)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d", c.req, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, c.want) {
			t.Fatalf("%+v: error %q missing %q", c.req, eb.Error, c.want)
		}
	}
}

// TestExperimentJob: the experiment surface lists and runs thesis
// experiments.
func TestExperimentJob(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	var list struct {
		Experiments []string `json:"experiments"`
	}
	doJSON(t, "GET", hs.URL+"/v1/experiments", nil, &list)
	if len(list.Experiments) < 20 {
		t.Fatalf("experiment list too short: %v", list.Experiments)
	}

	var rep ExperimentResponse
	resp := doJSON(t, "POST", hs.URL+"/v1/experiments/table3.2",
		ExperimentRequest{Scale: 1, Seeds: 2}, &rep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rep.ID != "table3.2" || rep.Text == "" {
		t.Fatalf("report: %+v", rep)
	}

	var eb errorBody
	resp = doJSON(t, "POST", hs.URL+"/v1/experiments/nosuch", ExperimentRequest{}, &eb)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "unknown experiment") {
		t.Fatalf("status %d, %+v", resp.StatusCode, eb)
	}
}

// TestSessionExpiry: idle sessions die at the TTL, counted in metrics.
func TestSessionExpiry(t *testing.T) {
	s, hs := newTestServer(t, Config{SessionTTL: time.Minute})

	var info SessionInfo
	doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{}, &info)
	if n := s.sessions.sweepIdle(time.Now()); n != 0 {
		t.Fatalf("fresh session expired: %d", n)
	}
	if n := s.sessions.sweepIdle(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("idle session not expired: %d", n)
	}
	if resp := doJSON(t, "GET", hs.URL+"/v1/sessions/"+info.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session still served: %d", resp.StatusCode)
	}
	if !strings.Contains(getText(t, hs.URL+"/metrics"), "smalld_sessions_expired_total 1") {
		t.Fatal("expiry not counted")
	}
}

// TestSessionLimit: the session ceiling answers 429 with Retry-After.
func TestSessionLimit(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if resp := doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{}, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: %d", i, resp.StatusCode)
		}
	}
	resp := doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{}, nil)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestShutdownDrains: after Shutdown, queued work has completed and new
// work is refused.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var info SessionInfo
	doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{}, &info)
	var res EvalResult
	doJSON(t, "POST", hs.URL+"/v1/sessions/"+info.ID+"/eval", SessionEvalRequest{Expr: "(add1 1)"}, &res)
	if res.Value != "2" {
		t.Fatalf("eval before shutdown: %+v", res)
	}

	s.Shutdown()
	resp := doJSON(t, "POST", hs.URL+"/v1/sessions/"+info.ID+"/eval", SessionEvalRequest{Expr: "(add1 1)"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-shutdown eval: status %d", resp.StatusCode)
	}
	// Idempotent.
	s.Shutdown()
}

// TestConcurrentClients hammers sessions and sim jobs from many
// goroutines; run under -race this is the serving layer's data-race
// check.
func TestConcurrentClients(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			backend := BackendLisp
			if c%2 == 0 {
				backend = BackendSmall
			}
			var info SessionInfo
			resp := doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{Backend: backend}, &info)
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("client %d: create status %d", c, resp.StatusCode)
				return
			}
			base := hs.URL + "/v1/sessions/" + info.ID
			for i := 0; i < 5; i++ {
				var res EvalResult
				expr := fmt.Sprintf("(length (cons %d '(a b c)))", i)
				resp := doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: expr}, &res)
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // backpressure is a valid answer under load
				}
				if res.Error != "" || res.Value != "4" {
					errs <- fmt.Errorf("client %d eval %d: %+v", c, i, res)
					return
				}
			}
			var sr SimResponse
			resp = doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{
				TraceText: tinyTrace,
				Points:    []SimPoint{{TableSize: 64, Seed: int64(c)}, {TableSize: 128, Seed: int64(c)}},
			}, &sr)
			if resp.StatusCode == http.StatusOK && len(sr.Results) != 2 {
				errs <- fmt.Errorf("client %d sim: %+v", c, sr)
				return
			}
			doJSON(t, "DELETE", base, nil, nil)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The metrics endpoint must render consistently after the storm.
	body := getText(t, hs.URL+"/metrics")
	if !strings.Contains(body, "smalld_requests_total") {
		t.Fatalf("metrics missing request counters:\n%s", body)
	}
}

// TestCircularValueInBand: an eval whose value is a circular list
// answers 200 with error set, on the VM and on the interpreter, and the
// session goes on serving. Rendering that value once took smalld down.
func TestCircularValueInBand(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, backend := range []string{"vm", "lisp"} {
		var info SessionInfo
		doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{Backend: backend}, &info)
		base := hs.URL + "/v1/sessions/" + info.ID
		var res EvalResult
		resp := doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(setq x (list 1 2)) (rplacd (cdr x) x)"}, &res)
		if resp.StatusCode != http.StatusOK || !strings.Contains(res.Error, "circular list") {
			t.Fatalf("%s: circular value: status %d, %+v", backend, resp.StatusCode, res)
		}
		var after EvalResult
		doJSON(t, "POST", base+"/eval", SessionEvalRequest{Expr: "(list (car x) (cadr x) (car (cddr x)))"}, &after)
		if after.Error != "" || after.Value != "(1 2 1)" {
			t.Fatalf("%s: after a circular value: %+v", backend, after)
		}
	}
}

// TestCircularListInBand: on both backends, an eval whose list
// primitive walks a circular list answers 200 with the error in band,
// within the request deadline, and the session's next eval succeeds. On
// the lisp backend that covers copy, whose recursion on the cdr used to
// overflow the stack and take the process down.
func TestCircularListInBand(t *testing.T) {
	_, hs := newTestServer(t, Config{RequestTimeout: 5 * time.Second})
	client := &http.Client{Timeout: 10 * time.Second}
	eval := func(base, expr string) (*http.Response, EvalResult) {
		t.Helper()
		body, err := json.Marshal(SessionEvalRequest{Expr: expr})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+"/eval", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		defer resp.Body.Close()
		var res EvalResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("%s: decoding: %v", expr, err)
		}
		return resp, res
	}
	for backend, exprs := range map[string][]string{
		"vm":   {"(length x)"},
		"lisp": {"(length x)", "(reverse x)", "(copy x)", "(subst 0 9 x)"},
	} {
		var info SessionInfo
		doJSON(t, "POST", hs.URL+"/v1/sessions", SessionCreateRequest{Backend: backend}, &info)
		base := hs.URL + "/v1/sessions/" + info.ID
		eval(base, "(setq x (list 1 2)) (rplacd (cdr x) x)")
		for _, expr := range exprs {
			resp, res := eval(base, expr)
			if resp.StatusCode != http.StatusOK || !strings.Contains(res.Error, "circular list") {
				t.Fatalf("%s: %s: status %d, %+v", backend, expr, resp.StatusCode, res)
			}
		}
		if _, after := eval(base, "(list (car x) (cadr x) (car (cddr x)))"); after.Error != "" || after.Value != "(1 2 1)" {
			t.Fatalf("%s: after circular lists: %+v", backend, after)
		}
	}
}

// TestDecodeSimRequestPresize: a /v1/sim body's buffer is sized from
// Content-Length only up to a fixed amount, so a client that declares a
// large body and sends little holds little memory, and a body past that
// amount is still read whole.
func TestDecodeSimRequestPresize(t *testing.T) {
	const small = `{"trace":"pearl"}`
	r := httptest.NewRequest("POST", "/v1/sim", strings.NewReader(small))
	r.ContentLength = 16 << 20
	var req SimRequest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := decodeSimRequest(r, &req); err != nil || req.Trace != "pearl" {
		t.Fatalf("decode: %v, %+v", err, req)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("a %d-byte body declared as 16 MB allocated %d bytes", len(small), n)
	}

	body := bytes.Repeat([]byte("SMTB"), 150<<10)
	r = httptest.NewRequest("POST", "/v1/sim", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/x-smtb")
	req = SimRequest{}
	if err := decodeSimRequest(r, &req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.TraceData, body) {
		t.Errorf("a %d-byte raw body read as %d bytes", len(body), len(req.TraceData))
	}
}
