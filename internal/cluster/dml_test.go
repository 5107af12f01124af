package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/cluster/wire"
	"repro/internal/dml"
	"repro/internal/lisp"
	"repro/internal/server"
	"repro/internal/sexpr"
)

// mustAnalyze tokenizes a defun source the way the evaluator would.
func mustAnalyze(t *testing.T, src string) *dml.Program {
	t.Helper()
	forms, err := sexpr.ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return dml.AnalyzeProgram(forms)
}

// TestDMLVerbsOverWire drives spawn/touch/dec through the binary
// protocol against one real worker: the frames translate onto the dml
// HTTP routes and the typed errors survive the round trip.
func TestDMLVerbsOverWire(t *testing.T) {
	workers, gw, _ := testCluster(t, 2)
	_ = workers

	link := &clusterLink{g: gw, w: gw.workers[0]}
	forms := "(defun dbl (n) (+ n n))"
	prog := mustAnalyze(t, forms)

	ctx := context.Background()
	rep, err := link.Spawn(ctx, dml.SpawnRequest{
		Prog: prog.Token, Flags: 1, Defs: prog.Defs, Expr: "(dbl x)", Binds: "((x . 34))"})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if rep.Weight != dml.InitialWeight {
		t.Errorf("weight = %d, want %d", rep.Weight, dml.InitialWeight)
	}
	tr, err := link.Touch(ctx, rep.ObjID)
	if err != nil || tr.Error != "" || tr.Value != "68" {
		t.Fatalf("touch: %v %+v", err, tr)
	}
	if err := link.SendDecs([]wire.DecEntry{{ObjID: rep.ObjID, Weight: rep.Weight}}); err != nil {
		t.Errorf("dec: %v", err)
	}
	if _, err := link.Touch(ctx, rep.ObjID); !errors.Is(err, dml.ErrUnknownObject) {
		t.Errorf("touch of freed object: got %v, want ErrUnknownObject", err)
	}

	// Typed failures survive the frame translation.
	if _, err := link.Spawn(ctx, dml.SpawnRequest{Prog: "p-none", Expr: "(dbl 1)"}); !errors.Is(err, dml.ErrUnknownProg) {
		t.Errorf("unknown prog: got %v, want ErrUnknownProg", err)
	}
	if _, err := link.Touch(ctx, 999999); !errors.Is(err, dml.ErrUnknownObject) {
		t.Errorf("unknown object: got %v, want ErrUnknownObject", err)
	}
}

// TestDMLCombiningOverRPC checks the weighting scheme's message
// economics over real RPC workers through the gateway's own links:
// copying a reference sends nothing (no weight-increment message ever
// exists), and releasing many copies of one reference before an
// explicit Flush combines their decrements into far fewer frames than
// releases. The flusher may send a partial frame in between, but it
// fires at most once per 5 ms tick, so the ratio stays far above 1.
// The frames free the object on its worker.
func TestDMLCombiningOverRPC(t *testing.T) {
	_, gw, _ := testCluster(t, 2)
	sp := gw.dml.sp
	prog := mustAnalyze(t, "(defun dbl (n) (+ n n))")
	ctx := context.Background()

	r, err := sp.Spawn(ctx, prog.Token, prog.Defs, "(dbl x)", "((x . 21))")
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := sp.Touch(ctx, r); err != nil || rep.Value != "42" {
		t.Fatalf("touch: %v %+v", err, rep)
	}
	refs := []dml.Ref{r}
	for len(refs) < 256 {
		next := make([]dml.Ref, 0, 2*len(refs))
		for _, ref := range refs {
			kept, copied, err := sp.Copy(ref)
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, kept, copied)
		}
		refs = next
	}
	for _, ref := range refs {
		sp.Release(ref)
	}
	sp.Flush()
	// A frame the flusher took before Flush may still be in flight.
	waitFor(t, "every decrement to be sent or written off", func() bool {
		c := sp.Stats().Combining
		return c.EntriesSent+c.Combined+c.Dropped == c.Enqueued
	})

	st := sp.Stats()
	if st.WeightIncMessages != 0 {
		t.Errorf("weight-increment messages sent: %d", st.WeightIncMessages)
	}
	if st.LocalCopies != int64(len(refs)-1) {
		t.Errorf("local copies = %d, want %d", st.LocalCopies, len(refs)-1)
	}
	c := st.Combining
	if c.Enqueued != int64(len(refs)) || c.Frames == 0 {
		t.Fatalf("combining counters: %+v, want %d decrements enqueued and a frame sent", c, len(refs))
	}
	if ratio := float64(c.Enqueued) / float64(c.Frames); ratio <= 1 {
		t.Errorf("combining ratio %.2f (%d decrements in %d frames), want > 1", ratio, c.Enqueued, c.Frames)
	}
	if st.OutstandingWeight != 0 || c.Dropped != 0 {
		t.Errorf("after flush: outstanding weight %d, dropped %d", st.OutstandingWeight, c.Dropped)
	}
	link := &clusterLink{g: gw, w: gw.byAddr[r.Addr]}
	if _, err := link.Touch(ctx, r.ID); !errors.Is(err, dml.ErrUnknownObject) {
		t.Errorf("touch after the last decrement: got %v, want ErrUnknownObject", err)
	}
}

// TestDMLSessionAcrossCluster is the distributed acceptance check at
// the cluster level: a gateway dml session evaluates a benchprog
// identically to a single-node interpreter, spreading spawns over real
// workers via the binary verbs, with zero weight-increment messages.
func TestDMLSessionAcrossCluster(t *testing.T) {
	workers, gw, hs := testCluster(t, 2)

	var src string
	for _, b := range benchprogs.All() {
		if b.Name == "plagen" {
			src = b.Gen(1)
			break
		}
	}
	if src == "" {
		t.Fatal("benchprog plagen not found")
	}
	var baseOut bytes.Buffer
	base := lisp.New(lisp.WithOutput(&baseOut), lisp.WithStepLimit(200_000_000))
	baseVal, err := base.Run(src)
	if err != nil {
		t.Fatal(err)
	}

	var info server.SessionInfo
	resp := doJSON(t, "POST", hs.URL+"/v1/sessions",
		server.SessionCreateRequest{Backend: "dml", StepLimit: 200_000_000}, &info)
	if resp.StatusCode != http.StatusCreated || info.Backend != "dml" {
		t.Fatalf("create: status %d info %+v", resp.StatusCode, info)
	}
	basePath := hs.URL + "/v1/sessions/" + info.ID

	var res server.EvalResult
	doJSON(t, "POST", basePath+"/eval", map[string]string{"expr": src}, &res)
	if res.Error != "" {
		t.Fatalf("eval: %s", res.Error)
	}
	if want := lisp.Format(baseVal); res.Value != want {
		t.Errorf("value diverged: got %s want %s", res.Value, want)
	}
	if res.Output != baseOut.String() {
		t.Errorf("output diverged:\ngot  %q\nwant %q", res.Output, baseOut.String())
	}

	st := gw.dml.sp.Stats()
	if st.Spawns != 3 {
		t.Errorf("spawns = %d, want 3", st.Spawns)
	}
	if st.WeightIncMessages != 0 {
		t.Errorf("weight-increment messages sent: %d", st.WeightIncMessages)
	}
	// The spawns really crossed the wire: the workers' own counters sum
	// to the coordinator's.
	var workerSpawns int64
	for _, w := range workers {
		var body bytes.Buffer
		fetchWorkerMetrics(t, gw, w, &body)
		workerSpawns += scrapeGauge(t, body.String(), "smalld_dml_spawns")
	}
	if workerSpawns != st.Spawns {
		t.Errorf("worker-side spawns = %d, coordinator says %d", workerSpawns, st.Spawns)
	}

	// Delete → futures released, weight recovered everywhere.
	doJSON(t, "DELETE", basePath, nil, nil)
	waitFor(t, "weight recovery after dml session delete", func() bool {
		gw.dml.sp.Flush()
		return gw.dml.sp.Stats().OutstandingWeight == 0
	})

	// The dml gauges render on the gateway's /metrics.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"smallcluster_dml_spawns 3",
		"smallcluster_dml_weight_inc_messages 0",
		"smallcluster_dml_outstanding_weight 0",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("gateway metrics missing %q", want)
		}
	}
}

// TestDMLWorkerDeath is the chaos satellite in miniature: kill the
// worker holding a future mid-flight and the touch fails typed (no
// hang), while the survivor's weight stays conserved.
func TestDMLWorkerDeath(t *testing.T) {
	workers, gw, hs := testCluster(t, 2)

	var info server.SessionInfo
	doJSON(t, "POST", hs.URL+"/v1/sessions", server.SessionCreateRequest{Backend: "dml"}, &info)
	basePath := hs.URL + "/v1/sessions/" + info.ID

	var res server.EvalResult
	doJSON(t, "POST", basePath+"/eval", map[string]string{
		"expr": "(defun slow (n) (cond ((lessp n 2) n) (t (+ (slow (- n 1)) (slow (- n 2))))))"}, &res)
	if res.Error != "" {
		t.Fatalf("defun: %s", res.Error)
	}
	// Park two futures, one per worker (least-loaded spreads them).
	doJSON(t, "POST", basePath+"/eval", map[string]string{
		"expr": "(setq f1 (future (slow 12)))"}, &res)
	doJSON(t, "POST", basePath+"/eval", map[string]string{
		"expr": "(setq f2 (future (slow 13)))"}, &res)
	if res.Error != "" {
		t.Fatalf("future: %s", res.Error)
	}

	// Kill one worker abruptly.
	workers[0].rpc.Close()
	workers[0].svc.Shutdown()
	waitFor(t, "gateway to mark the worker down", func() bool {
		return !gw.byAddr[workers[0].addr].healthy.Load()
	})

	// Touching both futures: one resolves, the dead one errors typed —
	// the eval returns an in-band error rather than hanging.
	doJSON(t, "POST", basePath+"/eval", map[string]string{
		"expr": "(list (touch f1) (touch f2))"}, &res)
	if res.Error == "" {
		t.Fatal("touch of a dead worker's future did not fail")
	}
	if gw.dml.sp.Stats().TouchFailures == 0 {
		t.Error("touch_failures counter stayed zero")
	}

	// The failure is visible on /metrics and the ledger recovered the
	// dead worker's weight.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "smallcluster_dml_touch_failures") {
		t.Error("metrics missing smallcluster_dml_touch_failures")
	}
}

// fetchWorkerMetrics pulls /metrics from a worker over the RPC channel.
func fetchWorkerMetrics(t *testing.T, gw *Gateway, w *testWorker, out *bytes.Buffer) {
	t.Helper()
	w2 := gw.byAddr[w.addr]
	resp, err := w2.client.Do(context.Background(), "GET", "/metrics", nil, nil)
	if err != nil {
		t.Fatalf("metrics from %s: %v", w.addr, err)
	}
	out.Write(resp.Body)
}

// scrapeGauge reads one un-labelled metric value from exposition text.
func scrapeGauge(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
