package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchprogs"
	"repro/internal/trace"
)

// newMemoTestServer starts a Server whose stream memo generates through
// gen (nil keeps the real generator), installed before any request.
func newMemoTestServer(t *testing.T, cfg Config, gen func(context.Context, benchprogs.Benchmark, int) (*trace.Stream, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if gen != nil {
		s.streams.gen = gen
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Shutdown()
	})
	return s, hs
}

// postSim sends a /v1/sim request under ctx and returns the status and
// raw body. It reports failures as errors so goroutines can call it.
func postSim(ctx context.Context, url string, req SimRequest) (int, []byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, "POST", url+"/v1/sim", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// releaser returns a channel that a test generator blocks on and the
// idempotent function that closes it. Tests also register the function
// as a cleanup after starting the server, so that a failing test
// releases its generators before the server shuts down.
func releaser() (<-chan struct{}, func()) {
	ch := make(chan struct{})
	var once sync.Once
	return ch, func() { once.Do(func() { close(ch) }) }
}

// within receives from ch, failing the test after ten seconds.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		var zero T
		return zero
	}
}

// counter reads a flat counter from the server's registry.
func counter(s *Server, name string) int64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return s.metrics.counters[name]
}

// TestStreamMemoResponsesIdentical: a /v1/sim response over a memoized
// stream is byte-identical to one over a freshly generated stream, for
// every benchprog at scales 1 and 2 and table sizes 256 and 1024. On
// server a, each key's first request (table 256) generates and the next
// two are memo hits; server b generates the table-1024 answer fresh.
func TestStreamMemoResponsesIdentical(t *testing.T) {
	a, ha := newMemoTestServer(t, Config{}, nil)
	b, hb := newMemoTestServer(t, Config{}, nil)
	ctx := context.Background()
	sim := func(url string, name string, scale, table int) []byte {
		t.Helper()
		code, body, err := postSim(ctx, url, SimRequest{Trace: name, Scale: scale, Point: SimPoint{TableSize: table, Seed: 1}})
		if err != nil || code != http.StatusOK {
			t.Fatalf("%s scale %d table %d: status %d err %v: %s", name, scale, table, code, err, body)
		}
		return body
	}
	keys := 0
	for _, bp := range benchprogs.All() {
		for _, scale := range []int{1, 2} {
			keys++
			fresh256 := sim(ha.URL, bp.Name, scale, 256)
			memo1024 := sim(ha.URL, bp.Name, scale, 1024)
			memo256 := sim(ha.URL, bp.Name, scale, 256)
			fresh1024 := sim(hb.URL, bp.Name, scale, 1024)
			if !bytes.Equal(fresh256, memo256) {
				t.Errorf("%s scale %d table 256: memoized response differs:\n fresh %s\n memo  %s", bp.Name, scale, fresh256, memo256)
			}
			if !bytes.Equal(fresh1024, memo1024) {
				t.Errorf("%s scale %d table 1024: memoized response differs:\n fresh %s\n memo  %s", bp.Name, scale, fresh1024, memo1024)
			}
		}
	}
	if got := counter(a, "smalld_stream_memo_misses_total"); got != int64(keys) {
		t.Errorf("server a: %d misses, want %d (one per key)", got, keys)
	}
	if got := counter(a, "smalld_stream_memo_hits_total"); got != int64(2*keys) {
		t.Errorf("server a: %d hits, want %d", got, 2*keys)
	}
	if got := counter(b, "smalld_stream_memo_misses_total"); got != int64(keys) {
		t.Errorf("server b: %d misses, want %d", got, keys)
	}
}

// TestStreamMemoSharesOneGeneration: eight concurrent first requests for
// one key cause exactly one generation, and all eight get the same 200.
func TestStreamMemoSharesOneGeneration(t *testing.T) {
	const n = 8
	var gens atomic.Int32
	release, releaseAll := releaser()
	s, hs := newMemoTestServer(t, Config{Workers: n, QueueDepth: 2 * n},
		func(ctx context.Context, b benchprogs.Benchmark, scale int) (*trace.Stream, error) {
			gens.Add(1)
			<-release
			return generateStream(ctx, b, scale)
		})
	t.Cleanup(releaseAll)
	req := SimRequest{Trace: "slang", Scale: 1, Point: SimPoint{TableSize: 256}}
	codes := make([]int, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], bodies[i], errs[i] = postSim(context.Background(), hs.URL, req)
		}()
	}
	// One request generates; hold it until the other seven have joined.
	waitFor(t, "seven requests joining the generation", func() bool {
		return counter(s, "smalld_stream_memo_hits_total") == n-1
	})
	releaseAll()
	wg.Wait()
	for i := range n {
		if errs[i] != nil || codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d err %v: %s", i, codes[i], errs[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d answered differently:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := gens.Load(); got != 1 {
		t.Errorf("%d generations, want 1", got)
	}
	if got := counter(s, "smalld_stream_memo_misses_total"); got != 1 {
		t.Errorf("%d misses, want 1", got)
	}
}

// TestStreamMemoCancelledGeneration: a cancelled generation is not kept
// and fails no one else. A lone request cancelled mid-generation leaves
// nothing behind, so the next request generates again; when that
// request is cancelled in turn, a waiter whose context is still live
// generates under its own context and gets a 200, and its stream is
// then kept.
func TestStreamMemoCancelledGeneration(t *testing.T) {
	var gens atomic.Int32
	started := make(chan int32, 3)
	release, releaseAll := releaser()
	s, hs := newMemoTestServer(t, Config{Workers: 4},
		func(ctx context.Context, b benchprogs.Benchmark, scale int) (*trace.Stream, error) {
			started <- gens.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
			}
			return generateStream(ctx, b, scale)
		})
	t.Cleanup(releaseAll)
	req := SimRequest{Trace: "pearl", Scale: 1, Point: SimPoint{TableSize: 256}}
	type result struct {
		code int
		body []byte
		err  error
	}
	start := func(ctx context.Context) <-chan result {
		out := make(chan result, 1)
		go func() {
			code, body, err := postSim(ctx, hs.URL, req)
			out <- result{code, body, err}
		}()
		return out
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	a := start(ctxA)
	if n := within(t, "generation 1", started); n != 1 {
		t.Fatalf("generation %d started, want 1", n)
	}
	cancelA()
	if r := within(t, "the first request", a); r.err == nil {
		t.Fatalf("cancelled request completed: status %d", r.code)
	}
	waitFor(t, "cancelled request's worker to finish", func() bool { return s.queue.busy.Load() == 0 })
	if held := s.streams.heldRefs(); held != 0 {
		t.Fatalf("memo holds %d refs after a cancelled generation, want 0", held)
	}

	ctxB, cancelB := context.WithCancel(context.Background())
	b := start(ctxB)
	if n := within(t, "generation 2", started); n != 2 {
		t.Fatalf("generation %d started, want 2 (the next request generates again)", n)
	}
	c := start(context.Background())
	waitFor(t, "a live request joining the generation", func() bool {
		return counter(s, "smalld_stream_memo_hits_total") == 1
	})
	cancelB()
	if r := within(t, "the second request", b); r.err == nil {
		t.Fatalf("cancelled request completed: status %d", r.code)
	}
	if n := within(t, "generation 3", started); n != 3 {
		t.Fatalf("generation %d started, want 3 (the waiter's own)", n)
	}
	releaseAll()
	rc := within(t, "the waiter", c)
	if rc.err != nil || rc.code != http.StatusOK {
		t.Fatalf("waiter: status %d err %v: %s", rc.code, rc.err, rc.body)
	}

	code, body, err := postSim(context.Background(), hs.URL, req)
	if err != nil || code != http.StatusOK || !bytes.Equal(body, rc.body) {
		t.Fatalf("later request: status %d err %v: %s", code, err, body)
	}
	if got := gens.Load(); got != 3 {
		t.Errorf("%d generations, want 3 (the waiter's stream is kept)", got)
	}
	if s.streams.heldRefs() == 0 {
		t.Error("memo holds nothing after a successful generation")
	}
}

// TestStreamMemoBudget: the refs held never exceed the budget, the least
// recently used stream is dropped first, and a stream larger than the
// whole budget is served but not kept.
func TestStreamMemoBudget(t *testing.T) {
	const budget = 100
	sizes := map[string]int{"a": 40, "b": 40, "c": 30, "big": 150}
	var gens []string
	m := newStreamMemo(budget, newMetrics())
	m.gen = func(_ context.Context, b benchprogs.Benchmark, _ int) (*trace.Stream, error) {
		gens = append(gens, b.Name)
		return &trace.Stream{Name: b.Name, Refs: make([]trace.Ref, sizes[b.Name])}, nil
	}
	for i, step := range []struct {
		name string
		gen  bool  // whether the lookup generates
		held int64 // refs held afterwards
	}{
		{"a", true, 40},
		{"b", true, 80},
		{"a", false, 80}, // a is now more recent than b
		{"c", true, 70},  // drops b, the least recently used
		{"b", true, 70},  // drops a
		{"c", false, 70},
		{"big", true, 70}, // served, not kept
		{"big", true, 70},
		{"b", false, 70},
	} {
		before := len(gens)
		st, err := m.get(context.Background(), benchprogs.Benchmark{Name: step.name}, 1)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step.name, err)
		}
		if st.Name != step.name || len(st.Refs) != sizes[step.name] {
			t.Fatalf("step %d: got stream %q of %d refs, want %q of %d", i, st.Name, len(st.Refs), step.name, sizes[step.name])
		}
		if generated := len(gens) > before; generated != step.gen {
			t.Errorf("step %d (%s): generated = %v, want %v", i, step.name, generated, step.gen)
		}
		held := m.heldRefs()
		if held > budget {
			t.Fatalf("step %d: memo holds %d refs, above the budget of %d", i, held, budget)
		}
		if held != step.held {
			t.Errorf("step %d (%s): memo holds %d refs, want %d", i, step.name, held, step.held)
		}
	}
}

// TestStreamMemoMetrics: on a fresh server, the misses equal the distinct
// (program, scale) keys requested, every other built-in request is a
// hit, and the refs gauge sums the kept streams.
func TestStreamMemoMetrics(t *testing.T) {
	_, hs := newMemoTestServer(t, Config{}, nil)
	keys := []struct {
		name  string
		scale int
	}{{"pearl", 1}, {"pearl", 2}, {"slang", 1}, {"slang", 2}, {"plagen", 1}}
	for round := 0; round < 3; round++ {
		for i := range keys {
			k := keys[(i+round)%len(keys)]
			r := doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{Trace: k.name, Scale: k.scale, Point: SimPoint{TableSize: 256}}, nil)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("%s scale %d: status %d", k.name, k.scale, r.StatusCode)
			}
		}
	}
	var refs int
	for _, k := range keys {
		bp, _ := benchprogs.ByName(k.name)
		st, err := generateStream(context.Background(), bp, k.scale)
		if err != nil {
			t.Fatal(err)
		}
		refs += len(st.Refs)
	}
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"smalld_stream_memo_misses_total 5\n",
		"smalld_stream_memo_hits_total 10\n",
		fmt.Sprintf("smalld_stream_memo_refs %d\n", refs),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", strings.TrimSpace(want), body)
		}
	}
}

// TestTraceScaleCap: built-in traces are served up to maxTraceScale on
// /v1/sim and /v1/experiments, and a scale above it is a 400.
func TestTraceScaleCap(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var resp SimResponse
	r := doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{Trace: "slang", Scale: maxTraceScale}, &resp)
	if r.StatusCode != http.StatusOK || len(resp.Results) != 1 {
		t.Fatalf("/v1/sim at the cap: status %d, %+v", r.StatusCode, resp)
	}
	var rep ExperimentResponse
	r = doJSON(t, "POST", hs.URL+"/v1/experiments/multilisp", ExperimentRequest{Scale: maxTraceScale, Seeds: 2}, &rep)
	if r.StatusCode != http.StatusOK || rep.Text == "" {
		t.Fatalf("/v1/experiments at the cap: status %d, %+v", r.StatusCode, rep)
	}

	var eb errorBody
	r = doJSON(t, "POST", hs.URL+"/v1/sim", SimRequest{Trace: "slang", Scale: maxTraceScale + 1}, &eb)
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "cap") {
		t.Fatalf("/v1/sim above the cap: status %d, error %q", r.StatusCode, eb.Error)
	}
	eb = errorBody{}
	r = doJSON(t, "POST", hs.URL+"/v1/experiments/multilisp", ExperimentRequest{Scale: maxTraceScale + 1}, &eb)
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "cap") {
		t.Fatalf("/v1/experiments above the cap: status %d, error %q", r.StatusCode, eb.Error)
	}
}
