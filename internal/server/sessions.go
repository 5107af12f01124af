package server

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dml"
	"repro/internal/lisp"
	"repro/internal/sexpr"
	"repro/internal/smalllisp"
	"repro/internal/vm"
)

// Session backends.
const (
	// BackendLisp evaluates on the plain internal/lisp interpreter — the
	// instrumented-interpreter half of the thesis, and the whole
	// language: select it for forms outside the vm backend's language
	// (if, progn, while, lambda values, funcall/apply/mapcar, floats,
	// strings, n-ary arithmetic).
	BackendLisp = "lisp"
	// BackendSmall evaluates directly on a SMALL machine via
	// internal/smalllisp: every car/cdr/cons goes through the LP request
	// interface, so session stats expose live LPT counters.
	BackendSmall = "small"
	// BackendVM compiles each eval to SMALL stack-machine bytecode and
	// runs it on internal/vm — the unboxed fast path and the default;
	// each def compiles and links once, and list traffic still flows
	// through the LP, so LPT counters stay live.
	BackendVM = "vm"
	// BackendDML evaluates Multilisp with pcall/future/touch special
	// forms: spawnable subexpressions run on dml workers behind the
	// server's spawner, and eligible top-level calls are auto-rewritten
	// to pcall.
	BackendDML = "dml"
)

// defaultStepBudget bounds a single eval request unless the session asked
// for its own budget: hostile or accidentally divergent expressions
// return a budget-exceeded error instead of wedging a worker.
const defaultStepBudget = 5_000_000

// session is one long-lived interpreter owned by the service — the
// persistent EP whose list requests the machine answers, scaled up to a
// network client. mu serializes evals; interpreters are not reentrant.
type session struct {
	id      string
	backend string

	mu  sync.Mutex
	li  *lisp.Interp      // immutable after create; eval access serialized by mu
	si  *smalllisp.Interp // immutable after create; eval access serialized by mu
	vi  *vm.Session       // immutable after create; eval access serialized by mu
	di  *dml.Evaluator    // immutable after create; eval access serialized by mu
	out bytes.Buffer      // guarded by mu; captures (print ...) output per eval

	created  time.Time
	lastUsed time.Time // guarded by mu
	evals    int64     // guarded by mu
	steps    int64     // guarded by mu

	// prevStats is the machine-stat snapshot after the previous eval, for
	// computing per-eval deltas to feed the cumulative service counters.
	prevStats core.MachineStats // guarded by mu
}

// SessionInfo is the wire form of session metadata.
type SessionInfo struct {
	ID       string    `json:"id"`
	Backend  string    `json:"backend"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
	Evals    int64     `json:"evals"`
	Steps    int64     `json:"steps"`
	// Machine is present for the backends that run on a SMALL machine:
	// vm (the default) and small.
	Machine *MachineInfo `json:"machine,omitempty"`
}

// MachineInfo restates the LPT counters a session's machine has
// accumulated (Tables 5.2/5.3 terms).
type MachineInfo struct {
	LPTHits   int64 `json:"lpt_hits"`
	LPTMisses int64 `json:"lpt_misses"`
	Refops    int64 `json:"refops"`
	Gets      int64 `json:"gets"`
	Frees     int64 `json:"frees"`
	PeakLPT   int   `json:"peak_lpt"`
}

// sessions owns every live session plus the idle-expiry policy.
type sessions struct {
	mu   sync.Mutex
	m    map[string]*session // guarded by mu
	next int64               // guarded by mu
	ttl  time.Duration
	max  int

	metrics *metrics
	// dmlSpawner backs dml-backend sessions; set by server.New before
	// any request can arrive.
	dmlSpawner *dml.Spawner
}

func newSessions(ttl time.Duration, max int, m *metrics) *sessions {
	if ttl <= 0 {
		ttl = 10 * time.Minute
	}
	if max <= 0 {
		max = 1024
	}
	return &sessions{m: make(map[string]*session), ttl: ttl, max: max, metrics: m}
}

// errSessionLimit signals the create-session capacity ceiling.
var errSessionLimit = fmt.Errorf("session limit reached")

// errSessionExists signals a caller-specified ID collision.
var errSessionExists = fmt.Errorf("session already exists")

// ValidSessionID reports whether id is acceptable as a caller-specified
// session ID: 1-64 characters of [a-zA-Z0-9._-]. The cluster gateway
// relies on caller-specified IDs to place a session on its rendezvous
// owner before it exists, so the alphabet is deliberately conservative
// (safe in URLs, logs, and metric labels).
func ValidSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// create builds a session on the given backend. id == "" assigns the
// next server-local ID; a non-empty id must be valid and unused.
// An empty backend selects vm. stepLimit <= 0 takes the default
// per-eval budget; tableSize sizes the small and vm backends' LPT.
func (ss *sessions) create(id, backend string, stepLimit int64, tableSize int) (*session, error) {
	if id != "" && !ValidSessionID(id) {
		return nil, fmt.Errorf("invalid session id %q (want 1-64 chars of [a-zA-Z0-9._-])", id)
	}
	if backend == "" {
		backend = BackendVM
	}
	if stepLimit <= 0 {
		stepLimit = defaultStepBudget
	}
	s := &session{backend: backend, created: time.Now()}
	s.lastUsed = s.created
	switch backend {
	case BackendLisp:
		s.li = lisp.New(lisp.WithOutput(&s.out), lisp.WithStepLimit(stepLimit))
	case BackendSmall:
		cfg := core.Config{LPTSize: tableSize}
		s.si = smalllisp.New(
			smalllisp.WithMachine(core.NewMachine(cfg)),
			smalllisp.WithOutput(&s.out),
			smalllisp.WithStepLimit(stepLimit),
		)
	case BackendVM:
		cfg := core.Config{LPTSize: tableSize}
		s.vi = vm.NewSession(
			vm.WithMachine(core.NewMachine(cfg)),
			vm.WithOutput(&s.out),
			vm.WithStepLimit(stepLimit),
		)
	case BackendDML:
		if ss.dmlSpawner == nil {
			return nil, fmt.Errorf("dml backend unavailable: no spawner configured")
		}
		s.di = dml.NewEvaluator(ss.dmlSpawner, &s.out, lisp.WithStepLimit(stepLimit))
	default:
		return nil, fmt.Errorf("unknown backend %q (want %q, %q, %q or %q)", backend, BackendLisp, BackendSmall, BackendVM, BackendDML)
	}

	ss.mu.Lock()
	if len(ss.m) >= ss.max {
		ss.mu.Unlock()
		return nil, errSessionLimit
	}
	if id != "" {
		if _, taken := ss.m[id]; taken {
			ss.mu.Unlock()
			return nil, errSessionExists
		}
		s.id = id
	} else {
		ss.next++
		s.id = fmt.Sprintf("s%d", ss.next)
	}
	ss.m[s.id] = s
	ss.mu.Unlock()
	ss.metrics.add("smalld_sessions_created_total", 1)
	return s, nil
}

func (ss *sessions) get(id string) (*session, bool) {
	ss.mu.Lock()
	s, ok := ss.m[id]
	ss.mu.Unlock()
	return s, ok
}

// delete removes a session; reports whether it existed.
func (ss *sessions) delete(id string) bool {
	ss.mu.Lock()
	s, ok := ss.m[id]
	delete(ss.m, id)
	ss.mu.Unlock()
	if ok {
		s.close()
		ss.metrics.add("smalld_sessions_closed_total", 1)
	}
	return ok
}

// close releases backend resources a session holds beyond its own heap —
// for dml, the unresolved futures whose weight must return to the
// workers.
func (s *session) close() {
	if s.di != nil {
		s.di.Close()
	}
}

// list returns session infos sorted by id for stable output.
func (ss *sessions) list() []SessionInfo {
	ss.mu.Lock()
	all := make([]*session, 0, len(ss.m))
	for _, s := range ss.m {
		all = append(all, s)
	}
	ss.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]SessionInfo, len(all))
	for i, s := range all {
		out[i] = s.info()
	}
	return out
}

func (ss *sessions) active() int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return int64(len(ss.m))
}

// sweepIdle expires sessions idle past the ttl as of now; returns the
// number expired. The janitor calls this periodically; tests call it
// directly.
func (ss *sessions) sweepIdle(now time.Time) int {
	ss.mu.Lock()
	var dead []string
	for id, s := range ss.m {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		s.mu.Unlock()
		if idle > ss.ttl {
			dead = append(dead, id)
		}
	}
	for _, id := range dead {
		ss.m[id].close()
		delete(ss.m, id)
	}
	ss.mu.Unlock()
	if len(dead) > 0 {
		ss.metrics.add("smalld_sessions_expired_total", int64(len(dead)))
	}
	return len(dead)
}

// EvalResult is the wire form of one eval.
type EvalResult struct {
	Value  string `json:"value"`
	Output string `json:"output,omitempty"`
	Steps  int64  `json:"steps"`
	Error  string `json:"error,omitempty"`
}

// eval runs src in the session under ctx with a fresh step budget.
// Evaluation errors (including budget exhaustion) are returned in-band:
// the session stays alive and the request is a 200 with the error field
// set, since a Lisp error is a successful service interaction.
func (s *session) eval(ctx context.Context, src string) EvalResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out.Reset()
	var (
		val sexpr.Value
		err error
	)
	switch s.backend {
	case BackendLisp:
		s.li.SetContext(ctx)
		s.li.ResetSteps()
		val, err = s.li.Run(src)
		s.li.SetContext(nil)
		s.steps += s.li.Steps()
	case BackendSmall:
		s.si.SetContext(ctx)
		s.si.ResetSteps()
		val, err = s.si.Run(src)
		s.si.SetContext(nil)
		s.steps += s.si.Steps()
	case BackendVM:
		s.vi.SetContext(ctx)
		s.vi.ResetSteps()
		val, err = s.vi.Run(src)
		s.vi.SetContext(nil)
		s.steps += s.vi.Steps()
	case BackendDML:
		s.di.Interp().ResetSteps()
		val, err = s.di.Run(ctx, src, true)
		s.steps += s.di.Interp().Steps()
	}
	s.evals++
	s.lastUsed = time.Now()
	res := EvalResult{Steps: s.stepsDelta()}
	if err != nil {
		res.Error = err.Error()
	} else {
		res.Value = lisp.Format(val)
	}
	res.Output = s.out.String()
	return res
}

// stepsDelta returns the steps of the just-finished eval (the interpreter
// counter was reset at eval start).
func (s *session) stepsDelta() int64 {
	switch s.backend {
	case BackendLisp:
		return s.li.Steps()
	case BackendSmall:
		return s.si.Steps()
	case BackendVM:
		return s.vi.Steps()
	case BackendDML:
		return s.di.Interp().Steps()
	}
	return 0
}

// machine returns the session's SMALL machine, nil for the plain
// interpreter backend.
func (s *session) machine() *core.Machine {
	switch {
	case s.si != nil:
		return s.si.Machine()
	case s.vi != nil:
		return s.vi.Machine()
	}
	return nil
}

// machineDelta returns the change in LPT counters since the previous
// call, for accumulation into the service-wide counters.
func (s *session) machineDelta() (hits, misses, refops int64) {
	m := s.machine()
	if m == nil {
		return 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := m.Stats()
	hits = cur.LPT.Hits - s.prevStats.LPT.Hits
	misses = cur.LPT.Misses - s.prevStats.LPT.Misses
	refops = cur.LPT.Refops - s.prevStats.LPT.Refops
	s.prevStats = cur
	return hits, misses, refops
}

// info snapshots the session's metadata.
func (s *session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := SessionInfo{
		ID: s.id, Backend: s.backend,
		Created: s.created, LastUsed: s.lastUsed,
		Evals: s.evals, Steps: s.steps,
	}
	if m := s.machine(); m != nil {
		st := m.Stats()
		in.Machine = &MachineInfo{
			LPTHits: st.LPT.Hits, LPTMisses: st.LPT.Misses,
			Refops: st.LPT.Refops, Gets: st.LPT.Gets, Frees: st.LPT.Frees,
			PeakLPT: m.PeakInUse(),
		}
	}
	return in
}
