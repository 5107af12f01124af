package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/dml"
	"repro/internal/lisp"
	"repro/internal/server"
)

// dmlStepBudget bounds one gateway-side dml eval unless the session
// asked for its own budget (same default as smalld's sessions).
const dmlStepBudget = 5_000_000

// clusterLink adapts one cluster worker to dml.Link: spawns, touches,
// and decrement batches ride the binary SMCR verbs through the pooled
// client, and health comes from the gateway's circuit breaker — so a
// dead worker fails touches typed instead of hanging them.
type clusterLink struct {
	g *Gateway
	w *worker
}

func (l *clusterLink) Addr() string  { return l.w.addr }
func (l *clusterLink) Healthy() bool { return l.w.healthy.Load() }
func (l *clusterLink) Load() int64   { return l.w.inflight.Load() }

// decodeDMLReply maps a worker's response frame onto the typed dml
// errors the coordinator routes on.
func decodeDMLReply(addr string, f *wire.Frame, out any) error {
	switch f.Status {
	case http.StatusOK:
		return json.Unmarshal(f.Body, out)
	case http.StatusNotFound:
		return fmt.Errorf("cluster: %s: %w", addr, dml.ErrUnknownObject)
	case http.StatusTooManyRequests:
		return fmt.Errorf("cluster: %s: %w", addr, dml.ErrSpawnBacklog)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("cluster: %s: %w", addr, dml.ErrWorkerDown)
	}
	var eb errorBody
	json.Unmarshal(f.Body, &eb)
	return fmt.Errorf("cluster: %s: dml verb failed (%d): %s", addr, f.Status, eb.Error)
}

func (l *clusterLink) Spawn(ctx context.Context, req dml.SpawnRequest) (dml.SpawnReply, error) {
	resp, err := l.w.client.FutureSpawn(ctx, req.Flags, req.Prog, req.Defs, req.Expr, req.Binds)
	if err != nil {
		l.g.markDown(l.w)
		return dml.SpawnReply{}, fmt.Errorf("cluster: %s: %w: %v", l.w.addr, dml.ErrWorkerDown, err)
	}
	var rep dml.SpawnReply
	if resp.Status == http.StatusNotFound {
		// On the spawn path a 404 means the program token, not an object.
		return dml.SpawnReply{}, fmt.Errorf("cluster: %s: %w", l.w.addr, dml.ErrUnknownProg)
	}
	if err := decodeDMLReply(l.w.addr, resp, &rep); err != nil {
		return dml.SpawnReply{}, err
	}
	return rep, nil
}

func (l *clusterLink) Touch(ctx context.Context, id int64) (dml.TouchReply, error) {
	resp, err := l.w.client.FutureTouch(ctx, id)
	if err != nil {
		if ctx.Err() != nil {
			return dml.TouchReply{}, ctx.Err()
		}
		l.g.markDown(l.w)
		return dml.TouchReply{}, fmt.Errorf("cluster: %s: %w: %v", l.w.addr, dml.ErrWorkerDown, err)
	}
	var rep dml.TouchReply
	if err := decodeDMLReply(l.w.addr, resp, &rep); err != nil {
		return dml.TouchReply{}, err
	}
	return rep, nil
}

func (l *clusterLink) SendDecs(decs []wire.DecEntry) error {
	ctx, cancel := context.WithTimeout(context.Background(), l.g.cfg.RequestTimeout)
	defer cancel()
	resp, err := l.w.client.WeightDec(ctx, decs)
	if err != nil {
		l.g.markDown(l.w)
		return fmt.Errorf("cluster: %s: %w: %v", l.w.addr, dml.ErrWorkerDown, err)
	}
	var rep dml.DecReply
	return decodeDMLReply(l.w.addr, resp, &rep)
}

// dmlSession is one gateway-resident Multilisp session: the evaluator
// runs at the gateway (it owns the program and the futures) and its
// parallel branches spread across the whole cluster — unlike the other
// backends, which live on exactly one worker.
type dmlSession struct {
	id string

	mu       sync.Mutex
	ev       *dml.Evaluator // eval access serialized by mu
	out      bytes.Buffer   // guarded by mu
	created  time.Time
	lastUsed time.Time // guarded by mu
	evals    int64     // guarded by mu
	steps    int64     // guarded by mu
}

func (s *dmlSession) info() server.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return server.SessionInfo{
		ID: s.id, Backend: server.BackendDML,
		Created: s.created, LastUsed: s.lastUsed,
		Evals: s.evals, Steps: s.steps,
	}
}

func (s *dmlSession) eval(ctx context.Context, src string) server.EvalResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out.Reset()
	s.ev.Interp().ResetSteps()
	val, err := s.ev.Run(ctx, src, true)
	s.steps += s.ev.Interp().Steps()
	s.evals++
	s.lastUsed = time.Now()
	res := server.EvalResult{Steps: s.ev.Interp().Steps()}
	if err != nil {
		res.Error = err.Error()
	} else {
		res.Value = lisp.Format(val)
	}
	res.Output = s.out.String()
	return res
}

// dmlSessions is the gateway's registry of dml sessions plus the shared
// coordinator over the cluster links.
type dmlSessions struct {
	sp  *dml.Spawner
	ttl time.Duration
	max int

	mu   sync.Mutex
	m    map[string]*dmlSession // guarded by mu
	next int64                  // guarded by mu
}

func newDMLSessions(g *Gateway) *dmlSessions {
	links := make([]dml.Link, 0, len(g.workers))
	for _, w := range g.workers {
		links = append(links, &clusterLink{g: g, w: w})
	}
	return &dmlSessions{
		sp:  dml.NewSpawner(links...),
		ttl: 10 * time.Minute,
		max: 1024,
		m:   make(map[string]*dmlSession),
	}
}

func (ds *dmlSessions) create(id string, stepLimit int64) (*dmlSession, error) {
	if stepLimit <= 0 {
		stepLimit = dmlStepBudget
	}
	s := &dmlSession{created: time.Now()}
	s.lastUsed = s.created
	s.ev = dml.NewEvaluator(ds.sp, &s.out, lisp.WithStepLimit(stepLimit))
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(ds.m) >= ds.max {
		return nil, fmt.Errorf("cluster: dml session limit (%d) reached", ds.max)
	}
	if id != "" {
		if _, taken := ds.m[id]; taken {
			return nil, fmt.Errorf("cluster: session %q already exists", id)
		}
		s.id = id
	} else {
		ds.next++
		s.id = fmt.Sprintf("dml%d", ds.next)
	}
	ds.m[s.id] = s
	return s, nil
}

func (ds *dmlSessions) get(id string) (*dmlSession, bool) {
	ds.mu.Lock()
	s, ok := ds.m[id]
	ds.mu.Unlock()
	return s, ok
}

func (ds *dmlSessions) delete(id string) bool {
	ds.mu.Lock()
	s, ok := ds.m[id]
	delete(ds.m, id)
	ds.mu.Unlock()
	if ok {
		s.ev.Close()
	}
	return ok
}

func (ds *dmlSessions) list() []server.SessionInfo {
	ds.mu.Lock()
	all := make([]*dmlSession, 0, len(ds.m))
	for _, s := range ds.m {
		all = append(all, s)
	}
	ds.mu.Unlock()
	out := make([]server.SessionInfo, len(all))
	for i, s := range all {
		out[i] = s.info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (ds *dmlSessions) active() int64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return int64(len(ds.m))
}

// sweepIdle expires dml sessions idle past the ttl, releasing their
// unresolved futures so the weight returns to the workers.
func (ds *dmlSessions) sweepIdle(now time.Time) int {
	ds.mu.Lock()
	var dead []*dmlSession
	for id, s := range ds.m {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		s.mu.Unlock()
		if idle > ds.ttl {
			dead = append(dead, s)
			delete(ds.m, id)
		}
	}
	ds.mu.Unlock()
	for _, s := range dead {
		s.ev.Close()
	}
	return len(dead)
}

// close releases every session's futures and shuts the coordinator
// down (flushing its combining queues).
func (ds *dmlSessions) close() {
	ds.mu.Lock()
	all := make([]*dmlSession, 0, len(ds.m))
	for id, s := range ds.m {
		all = append(all, s)
		delete(ds.m, id)
	}
	ds.mu.Unlock()
	for _, s := range all {
		s.ev.Close()
	}
	ds.sp.Close()
}

// --- gateway HTTP handlers for dml sessions ---

// handleDMLSessionCreate builds a gateway-resident dml session; called
// from handleSessionCreate when the request names the dml backend.
func (g *Gateway) handleDMLSessionCreate(w http.ResponseWriter, req *server.SessionCreateRequest) {
	g.metrics.add("smallcluster_dml_sessions_created_total", 1)
	s, err := g.dml.create(req.ID, req.StepLimit)
	if err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.info())
}

// serveDMLSession answers session-scoped requests for IDs living in the
// gateway's dml registry; reports false when the ID is not a dml
// session (so the caller forwards it to the rendezvous owner).
func (g *Gateway) serveDMLSession(w http.ResponseWriter, r *http.Request, id string) bool {
	s, ok := g.dml.get(id)
	if !ok {
		return false
	}
	switch {
	case r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.info())
	case r.Method == http.MethodDelete:
		g.dml.delete(id)
		w.WriteHeader(http.StatusNoContent)
	default: // POST .../eval
		var req struct {
			Expr string `json:"expr"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return true
		}
		if req.Expr == "" {
			httpError(w, http.StatusBadRequest, "expr is required")
			return true
		}
		ctx, cancel := g.requestCtx(r)
		defer cancel()
		g.metrics.add("smallcluster_dml_evals_total", 1)
		res := s.eval(ctx, req.Expr)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	}
	return true
}
