package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/server"
)

// testWorker is one in-process cluster member: a real smalld service
// behind a real RPC listener on a loopback port.
type testWorker struct {
	addr string
	rpc  *RPCServer
	svc  *server.Server
}

func startWorker(tb testing.TB) *testWorker {
	tb.Helper()
	svc := server.New(server.Config{
		Workers:        2,
		QueueDepth:     32,
		RequestTimeout: 10 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	rpc := NewRPCServer(svc.Handler())
	go rpc.Serve(context.Background(), ln)
	w := &testWorker{addr: ln.Addr().String(), rpc: rpc, svc: svc}
	tb.Cleanup(func() {
		w.rpc.Close()
		w.svc.Shutdown()
	})
	return w
}

// startGateway builds a gateway over the workers with test-speed health
// probing; it closes with the test.
func startGateway(tb testing.TB, workers []*testWorker) *Gateway {
	tb.Helper()
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w.addr
	}
	gw, err := NewGateway(Config{
		Peers:          peers,
		HealthInterval: 20 * time.Millisecond,
		ProbeTimeout:   time.Second,
		FailThreshold:  1,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		RetryBudget:    2,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(gw.Close)
	return gw
}

// testCluster spins up n workers plus a gateway with test-speed health
// probing, fronted by an httptest HTTP server.
func testCluster(t *testing.T, n int) ([]*testWorker, *Gateway, *httptest.Server) {
	t.Helper()
	workers := make([]*testWorker, n)
	for i := range workers {
		workers[i] = startWorker(t)
	}
	gw := startGateway(t, workers)
	hs := httptest.NewServer(gw.Handler())
	t.Cleanup(hs.Close)
	return workers, gw, hs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// doJSON posts (or gets) JSON and decodes the response body into out.
func doJSON(t *testing.T, method, url string, in, out any) *http.Response {
	t.Helper()
	var body *strings.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = strings.NewReader(string(b))
	} else {
		body = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

// sessionIDOwnedBy finds a valid session ID whose rendezvous owner is
// the given peer — how tests place sessions deterministically.
func sessionIDOwnedBy(t *testing.T, peers []string, owner string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("pin%d", i)
		if Rendezvous(peers, id) == owner {
			return id
		}
	}
	t.Fatalf("no session ID hashes to %s", owner)
	return ""
}

// --- client <-> RPCServer, no gateway ---

func TestClientRPC(t *testing.T) {
	w := startWorker(t)
	c := client.New(w.addr)
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	resp, err := c.Do(ctx, "GET", "/healthz", nil, nil)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if resp.Status != http.StatusOK || !strings.Contains(string(resp.Body), "ok") {
		t.Fatalf("healthz: status %d body %q", resp.Status, resp.Body)
	}

	resp, err = c.Do(ctx, "POST", "/v1/sessions", nil, []byte(`{"id":"rpc1","backend":"lisp"}`))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if resp.Status != http.StatusCreated {
		t.Fatalf("create: status %d body %q", resp.Status, resp.Body)
	}
	resp, err = c.Do(ctx, "POST", "/v1/sessions/rpc1/eval", nil, []byte(`{"expr":"(+ 1 2)"}`))
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	var res server.EvalResult
	if err := json.Unmarshal(resp.Body, &res); err != nil {
		t.Fatalf("eval: %v (body %q)", err, resp.Body)
	}
	if res.Value != "3" {
		t.Fatalf("eval: got %q, want 3", res.Value)
	}
}

// TestClientCancellation: a cancelled context aborts an in-flight RPC
// instead of blocking on the socket.
func TestClientCancellation(t *testing.T) {
	w := startWorker(t)
	c := client.New(w.addr)
	defer c.Close()

	if _, err := c.Do(context.Background(), "POST", "/v1/sessions", nil,
		[]byte(`{"id":"loop","step_limit":1000000000000}`)); err != nil {
		t.Fatalf("create: %v", err)
	}
	// An unbounded loop only the deadline can stop: either the worker
	// cancels the eval server-side (in-band error) or the client tears
	// the socket down — both must happen promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := c.Do(ctx, "POST", "/v1/sessions/loop/eval", nil,
		[]byte(`{"expr":"(prog (i) (setq i 0) loop (setq i (add1 i)) (go loop))"}`))
	if since := time.Since(start); since > 3*time.Second {
		t.Fatalf("cancellation took %v", since)
	}
	if err == nil {
		var res server.EvalResult
		if jerr := json.Unmarshal(resp.Body, &res); jerr != nil || res.Error == "" {
			t.Fatalf("divergent eval returned cleanly: status %d body %q", resp.Status, resp.Body)
		}
	}
}

// TestRPCDrain: a draining worker answers 503 with Retry-After on a
// connection that is already established.
func TestRPCDrain(t *testing.T) {
	w := startWorker(t)
	c := client.New(w.addr)
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Do(ctx, "GET", "/healthz", nil, nil); err != nil {
		t.Fatalf("pre-drain: %v", err)
	}
	w.rpc.draining.Store(true) // drain flag only; the pooled conn stays up
	resp, err := c.Do(ctx, "GET", "/healthz", nil, nil)
	if err != nil {
		t.Fatalf("during drain: %v", err)
	}
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", resp.Status)
	}
	var retry string
	for _, h := range resp.Header {
		if h.Key == "Retry-After" {
			retry = h.Value
		}
	}
	if retry == "" {
		t.Fatal("drain 503 without Retry-After")
	}
}

// --- gateway integration ---

// TestGatewaySticky: sessions created through the gateway stay on one
// worker — the same worker answers every request for a given session,
// and state persists across evals.
func TestGatewaySticky(t *testing.T) {
	_, gw, hs := testCluster(t, 3)

	type created struct {
		id, worker string
	}
	var sessions []created
	for i := 0; i < 6; i++ {
		var info server.SessionInfo
		resp := doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{Backend: "lisp"}, &info)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		worker := resp.Header.Get(WorkerHeader)
		if worker == "" {
			t.Fatal("create without worker header")
		}
		if own := Rendezvous(gw.peerAddrs, info.ID); own != worker {
			t.Fatalf("session %s created on %s but rendezvous owner is %s", info.ID, worker, own)
		}
		sessions = append(sessions, created{info.ID, worker})
	}

	for i, s := range sessions {
		var res server.EvalResult
		resp := doJSON(t, "POST", hs.URL+"/v1/sessions/"+s.id+"/eval",
			server.SessionEvalRequest{Expr: fmt.Sprintf("(defun keep () %d)", i)}, &res)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("defun: status %d", resp.StatusCode)
		}
		if got := resp.Header.Get(WorkerHeader); got != s.worker {
			t.Fatalf("session %s moved: created on %s, eval on %s", s.id, s.worker, got)
		}
		resp = doJSON(t, "POST", hs.URL+"/v1/sessions/"+s.id+"/eval",
			server.SessionEvalRequest{Expr: "(keep)"}, &res)
		if res.Value != fmt.Sprintf("%d", i) {
			t.Fatalf("session %s lost state: (keep) = %q, want %d (err %q)", s.id, res.Value, i, res.Error)
		}
		if got := resp.Header.Get(WorkerHeader); got != s.worker {
			t.Fatalf("session %s moved between evals: %s -> %s", s.id, s.worker, got)
		}
	}

	// The merged list sees every session exactly once.
	var list struct {
		Sessions []server.SessionInfo `json:"sessions"`
	}
	doJSON(t, "GET", hs.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != len(sessions) {
		t.Fatalf("merged list has %d sessions, want %d", len(list.Sessions), len(sessions))
	}
}

// TestGatewayFailover is the acceptance scenario: kill one of three
// workers mid-run. Only that worker's sessions fail; stateless jobs keep
// succeeding; the failover is visible in /metrics.
func TestGatewayFailover(t *testing.T) {
	workers, gw, hs := testCluster(t, 3)
	peers := gw.peerAddrs
	victim, survivor := workers[0], workers[1]

	// Pin one session to the victim and one to a survivor.
	deadID := sessionIDOwnedBy(t, peers, victim.addr)
	liveID := sessionIDOwnedBy(t, peers, survivor.addr)
	for _, id := range []string{deadID, liveID} {
		resp := doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{ID: id}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, resp.StatusCode)
		}
	}

	victim.rpc.Close()
	waitFor(t, "victim circuit to open", func() bool {
		return !gw.byAddr[victim.addr].healthy.Load()
	})

	// The dead worker's session is honestly lost...
	resp := doJSON(t, "POST", hs.URL+"/v1/sessions/"+deadID+"/eval",
		server.SessionEvalRequest{Expr: "1"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead session eval: status %d, want 503", resp.StatusCode)
	}
	// ...while the survivor's session still works...
	var res server.EvalResult
	resp = doJSON(t, "POST", hs.URL+"/v1/sessions/"+liveID+"/eval",
		server.SessionEvalRequest{Expr: "(+ 2 2)"}, &res)
	if resp.StatusCode != http.StatusOK || res.Value != "4" {
		t.Fatalf("live session eval: status %d value %q", resp.StatusCode, res.Value)
	}
	// ...and every stateless job lands on a live worker.
	for i := 0; i < 10; i++ {
		resp := doJSON(t, "POST", hs.URL+"/v1/sim",
			map[string]any{"trace": "slang", "scale": 1, "point": map[string]any{"table_size": 64}}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stateless job %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(WorkerHeader); got == victim.addr {
			t.Fatalf("stateless job %d routed to the dead worker", i)
		}
	}
	// New sessions keep being created (IDs redrawn off the dead owner).
	for i := 0; i < 5; i++ {
		var info server.SessionInfo
		resp := doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{}, &info)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("post-failure create %d: status %d", i, resp.StatusCode)
		}
		if Rendezvous(peers, info.ID) == victim.addr {
			t.Fatalf("new session %s placed on the dead worker", info.ID)
		}
	}

	if downs := gw.metrics.get("smallcluster_worker_down_total"); downs < 1 {
		t.Fatalf("worker_down_total = %d, want >= 1", downs)
	}
	if lost := gw.metrics.get("smallcluster_session_unroutable_total"); lost < 1 {
		t.Fatalf("session_unroutable_total = %d, want >= 1", lost)
	}
	var metricsText strings.Builder
	gw.metrics.render(&metricsText)
	for _, want := range []string{
		"smallcluster_worker_healthy{worker=\"" + victim.addr + "\"} 0",
		"smallcluster_worker_healthy{worker=\"" + survivor.addr + "\"} 1",
		"smallcluster_worker_down_total",
	} {
		if !strings.Contains(metricsText.String(), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, metricsText.String())
		}
	}
}

// TestGatewayRecovery: a worker that comes back is probed healthy again
// and takes new traffic.
func TestGatewayRecovery(t *testing.T) {
	workers, gw, _ := testCluster(t, 2)
	victim := workers[0]

	victim.rpc.Close()
	waitFor(t, "circuit open", func() bool { return !gw.byAddr[victim.addr].healthy.Load() })

	// Revive on the same address: a fresh RPC server, same handler.
	ln, err := net.Listen("tcp", victim.addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", victim.addr, err)
	}
	revived := NewRPCServer(victim.svc.Handler())
	go revived.Serve(context.Background(), ln)
	t.Cleanup(revived.Close)

	waitFor(t, "circuit close", func() bool { return gw.byAddr[victim.addr].healthy.Load() })
	if ups := gw.metrics.get("smallcluster_worker_up_total"); ups < 1 {
		t.Fatalf("worker_up_total = %d, want >= 1", ups)
	}
}

// TestGatewayStatelessRetry: stateless jobs arriving while a worker dies
// are retried onto a live one — the client sees only 200s.
func TestGatewayStatelessRetry(t *testing.T) {
	workers, gw, hs := testCluster(t, 2)
	// Kill one worker without waiting for the gateway to notice: the
	// first attempt may hit the corpse and must be retried.
	workers[0].rpc.Close()
	failed := 0
	for i := 0; i < 20; i++ {
		resp := doJSON(t, "POST", hs.URL+"/v1/sim",
			map[string]any{"trace": "slang", "scale": 1, "point": map[string]any{"table_size": 64}}, nil)
		if resp.StatusCode != http.StatusOK {
			failed++
		}
	}
	if failed != 0 {
		t.Fatalf("%d/20 stateless jobs failed despite retry budget", failed)
	}
	_ = gw
}

// TestGatewayConflictAndValidation: caller-specified IDs collide with
// 409, invalid ones answer 400, and bad JSON answers 400.
func TestGatewayConflictAndValidation(t *testing.T) {
	_, _, hs := testCluster(t, 2)

	if resp := doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{ID: "dup"}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{ID: "dup"}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{ID: "no/slash"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid id: %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d, want 400", resp.StatusCode)
	}
}

// TestGatewayHedge: with an aggressive hedge delay, slow stateless calls
// fire a second attempt and the metrics record it.
func TestGatewayHedge(t *testing.T) {
	workers := make([]*testWorker, 2)
	peers := make([]string, 2)
	for i := range workers {
		workers[i] = startWorker(t)
		peers[i] = workers[i].addr
	}
	gw, err := NewGateway(Config{
		Peers:          peers,
		HealthInterval: 20 * time.Millisecond,
		HedgeDelay:     time.Microsecond, // hedge virtually always fires
		RetryBudget:    1,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { hs.Close(); gw.Close() })

	for i := 0; i < 5; i++ {
		resp := doJSON(t, "POST", hs.URL+"/v1/sim",
			map[string]any{"trace": "slang", "scale": 1, "point": map[string]any{"table_size": 64}}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hedged job %d: status %d", i, resp.StatusCode)
		}
	}
	if gw.metrics.get("smallcluster_hedges_total") == 0 {
		t.Fatal("no hedges launched despite microsecond delay")
	}
}

// TestGatewayNoWorkers: with every worker down the gateway answers 503
// on everything and its healthz goes red.
func TestGatewayNoWorkers(t *testing.T) {
	workers, gw, hs := testCluster(t, 2)
	for _, w := range workers {
		w.rpc.Close()
	}
	waitFor(t, "all circuits open", func() bool { return len(gw.healthyAddrs()) == 0 })

	if resp := doJSON(t, "POST", hs.URL+"/v1/sim",
		map[string]any{"trace": "slang", "point": map[string]any{"table_size": 64}}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stateless with no workers: %d, want 503", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create with no workers: %d, want 503", resp.StatusCode)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no workers: %d, want 503", resp.StatusCode)
	}
}
