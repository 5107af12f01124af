package dml

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster/wire"
	"repro/internal/lisp"
	"repro/internal/sexpr"
)

// WorkerStats counts a worker's distributed-heap activity; every field
// maps to a smalld_dml_* metric.
type WorkerStats struct {
	Spawns        int64
	SpawnRejected int64
	Touches       int64
	DecsApplied   int64
	Freed         int64
}

// WorkerConfig sizes the evaluation pool.
// MaxBacklog caps the spawn admission queue regardless of
// configuration: an operator typo cannot make one worker buffer an
// unbounded share of the cluster's futures.
const MaxBacklog = 1 << 16

type WorkerConfig struct {
	// Parallel is the number of concurrent future evaluations (default 4).
	Parallel int
	// Backlog bounds spawns admitted but not yet evaluated (default 4096).
	// A full backlog rejects the spawn with ErrSpawnBacklog.
	Backlog int
	// StepLimit is the per-future evaluation budget (default 50M).
	StepLimit int64
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Parallel < 1 {
		c.Parallel = 4
	}
	if c.Backlog < 1 {
		c.Backlog = 4096
	}
	if c.StepLimit <= 0 {
		c.StepLimit = 50_000_000
	}
	return c
}

// job is one admitted future evaluation: the table entry it resolves
// plus the already-parsed program and expression.
type job struct {
	e     *entry
	defs  []sexpr.Value
	expr  sexpr.Value
	binds sexpr.Value // alist of (name . value) globals, pre-parsed
}

// Worker owns one node's share of the distributed Multilisp heap: the
// object table plus a bounded pool evaluating spawned futures. Spawns
// are asynchronous (the object id is valid for touch immediately),
// touches block until the pool resolves the entry, decrements apply
// instantly.
type Worker struct {
	cfg   WorkerConfig
	table *Table

	// mu orders spawn admission against Drain (which closes jobs), and
	// guards the program cache.
	mu       sync.RWMutex
	progs    map[string][]sexpr.Value // guarded by mu; token → parsed defs
	jobs     chan *job
	wg       sync.WaitGroup
	draining atomic.Bool

	spawns        atomic.Int64
	spawnRejected atomic.Int64
	touches       atomic.Int64
	decsApplied   atomic.Int64
	freed         atomic.Int64
}

// NewWorker starts the evaluation pool.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	w := &Worker{
		cfg:   cfg,
		table: NewTable(),
		progs: make(map[string][]sexpr.Value),
		jobs:  make(chan *job, min(cfg.Backlog, MaxBacklog)),
	}
	w.wg.Add(cfg.Parallel)
	for i := 0; i < cfg.Parallel; i++ {
		go w.evalLoop()
	}
	return w
}

// Table exposes the object table (for metrics gauges and tests).
func (w *Worker) Table() *Table { return w.table }

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Spawns:        w.spawns.Load(),
		SpawnRejected: w.spawnRejected.Load(),
		Touches:       w.touches.Load(),
		DecsApplied:   w.decsApplied.Load(),
		Freed:         w.freed.Load(),
	}
}

// Spawn validates and admits one future evaluation, returning the
// object id the caller may immediately touch. Parse errors are
// synchronous so hostile input maps to a 4xx, not a poisoned future.
func (w *Worker) Spawn(req SpawnRequest) (SpawnReply, error) {
	if req.Prog == "" || len(req.Prog) > wire.MaxProgLen {
		w.spawnRejected.Add(1)
		return SpawnReply{}, fmt.Errorf("dml: bad program token %q", req.Prog)
	}
	j := &job{}
	var err error
	if j.expr, err = sexpr.Parse(req.Expr); err != nil {
		w.spawnRejected.Add(1)
		return SpawnReply{}, fmt.Errorf("dml: bad expr: %w", err)
	}
	if req.Binds != "" {
		if j.binds, err = sexpr.Parse(req.Binds); err != nil {
			w.spawnRejected.Add(1)
			return SpawnReply{}, fmt.Errorf("dml: bad binds: %w", err)
		}
	}
	if req.Flags&wire.SpawnInstall != 0 {
		defs, err := sexpr.ParseAll(req.Defs)
		if err != nil {
			w.spawnRejected.Add(1)
			return SpawnReply{}, fmt.Errorf("dml: bad defs: %w", err)
		}
		w.mu.Lock()
		w.progs[req.Prog] = defs
		w.mu.Unlock()
	}
	w.mu.RLock()
	j.defs = w.progs[req.Prog]
	w.mu.RUnlock()
	if j.defs == nil {
		w.spawnRejected.Add(1)
		return SpawnReply{}, fmt.Errorf("%w: %s", ErrUnknownProg, req.Prog)
	}

	// Admission mirrors the server queue: non-blocking send under a read
	// lock so Drain's channel close cannot race a send.
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.draining.Load() {
		w.spawnRejected.Add(1)
		return SpawnReply{}, ErrSpawnBacklog
	}
	j.e = w.table.Register()
	select {
	case w.jobs <- j:
		w.spawns.Add(1)
		return SpawnReply{ObjID: j.e.id, Weight: InitialWeight}, nil
	default:
		// Roll the registration back so the id space stays dense in use.
		// Either outcome frees the entry: an error only means a stray
		// decrement for the fresh id got there first.
		w.table.ApplyDec(j.e.id, InitialWeight) // smallvet:ignore errdrop -- the entry is gone either way
		w.spawnRejected.Add(1)
		return SpawnReply{}, ErrSpawnBacklog
	}
}

// Touch blocks until the future resolves (or ctx ends) and returns its
// value. The reference weight is untouched — releasing is the
// coordinator's decision, delivered as decrements.
func (w *Worker) Touch(ctx context.Context, id int64) (TouchReply, error) {
	e, err := w.table.lookup(id)
	if err != nil {
		return TouchReply{}, err
	}
	w.touches.Add(1)
	select {
	case <-e.done:
	case <-ctx.Done():
		return TouchReply{}, fmt.Errorf("dml: touch of object %d: %w", id, ctx.Err())
	}
	return TouchReply{
		Value: e.value, Output: e.output,
		Steps: e.steps, Conses: e.conses, Error: e.errMsg,
	}, nil
}

// ApplyDecs lands a combined decrement batch atomically: a frame with
// any bad entry (an unknown object, or more weight than an object
// holds) is rejected whole and changes no weight, which matches the
// Combiner writing off the whole of a failed frame.
func (w *Worker) ApplyDecs(decs []wire.DecEntry) (DecReply, error) {
	if err := checkDecs(decs); err != nil {
		return DecReply{}, err
	}
	freed, err := w.table.ApplyDecs(decs)
	if err != nil {
		return DecReply{}, err
	}
	w.decsApplied.Add(int64(len(decs)))
	w.freed.Add(int64(freed))
	return DecReply{Applied: len(decs), Freed: freed}, nil
}

// Drain stops admission and waits (up to ctx) for queued evaluations to
// finish — the dml half of graceful shutdown.
func (w *Worker) Drain(ctx context.Context) {
	w.mu.Lock()
	if w.draining.Swap(true) {
		w.mu.Unlock()
		return
	}
	close(w.jobs)
	w.mu.Unlock()
	done := make(chan struct{})
	// Bounded invisibly to the analyzer: the jobs channel is closed
	// above, so the eval loops exit after the work already admitted and
	// this waiter frees itself even when ctx gives up first.
	// smallvet:ignore goroleak
	go func() { w.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// consCounter counts cons events from the tracing interpreter; the
// other sink methods are deliberately empty.
type consCounter struct{ conses int64 }

func (c *consCounter) Prim(op string, args []sexpr.Value, result sexpr.Value, depth int) {
	if op == "cons" {
		c.conses++
	}
}
func (c *consCounter) Enter(name string, nargs, depth int) {}
func (c *consCounter) Exit(name string, depth int)         {}

func (w *Worker) evalLoop() {
	defer w.wg.Done()
	for j := range w.jobs {
		w.evalOne(j)
	}
}

// evalOne evaluates one future in a fresh interpreter: program defs,
// then shipped global bindings, then the expression.
func (w *Worker) evalOne(j *job) {
	var out bytes.Buffer
	var cc consCounter
	in := lisp.New(lisp.WithOutput(&out), lisp.WithTrace(&cc),
		lisp.WithStepLimit(w.cfg.StepLimit))
	var val sexpr.Value
	var err error
	for _, d := range j.defs {
		if _, err = in.Eval(d); err != nil {
			break
		}
	}
	if err == nil {
		for b := j.binds; err == nil; {
			c, ok := b.(*sexpr.Cell)
			if !ok {
				break
			}
			if pair, ok := c.Car.(*sexpr.Cell); ok {
				if name, ok := pair.Car.(sexpr.Symbol); ok {
					in.Env().Bind(name, pair.Cdr)
				}
			}
			b = c.Cdr
		}
	}
	if err == nil {
		val, err = in.Eval(j.expr)
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	w.table.resolve(j.e, sexpr.String(val), out.String(), in.Steps(), cc.conses, errMsg)
}
