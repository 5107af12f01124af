// Package sim implements the trace-driven SMALL simulator of Chapter 5.
// It replays a preprocessed benchmark trace (internal/trace.Stream)
// against a SMALL machine (internal/core), reconstructing list argument
// identities with the probability parameters of §5.2.1:
//
//   - a chained argument is the previous primitive's return value;
//   - otherwise the argument is a function argument (ArgProb), a local
//     (LocProb), or a non-local (the remainder) drawn from the simulated
//     control/binding stack;
//   - with probability ReadProb the selected variable is assumed to have
//     been read into since last use (a fresh object is generated from the
//     Chapter 3 n/p distributions);
//   - the result is bound to a random stack variable with probability
//     BindProb, else pushed on the stack.
//
// A data cache (internal/cache) can be simulated in parallel over
// synthetic addresses assigned with the §5.2.5 procedure: fresh objects
// take consecutive addresses sized by the n/p distributions, and split
// children take offsets drawn from Clark's pointer distance
// distributions.
package sim

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/cache"
	"repro/internal/clark"
	"repro/internal/core"
	"repro/internal/trace"
)

// Params configures one simulation run. Zero values take thesis defaults.
type Params struct {
	TableSize        int // LPT entries (default 2048)
	HeapCells        int // heap size (default 1<<18)
	Policy           core.CompressionPolicy
	Decrement        core.DecrementPolicy
	SplitStackCounts bool
	FreeList         core.FreeDiscipline

	ArgProb  float64 // default 0.60
	LocProb  float64 // default 0.30
	BindProb float64 // default 0.01 (§5.2.1 runs used 0.01–0.10)
	ReadProb float64 // default 0.01

	Seed int64

	// CacheEntries/CacheLineSize enable the parallel data cache model
	// when CacheEntries > 0.
	CacheEntries  int
	CacheLineSize int

	// Timing enables the Fig 4.10–4.13 overlap model.
	Timing *core.TimingParams

	// MaxLocals bounds the random locals bound per call (default 2).
	MaxLocals int
}

func (p Params) withDefaults() Params {
	if p.TableSize == 0 {
		p.TableSize = 2048
	}
	if p.ArgProb == 0 && p.LocProb == 0 {
		p.ArgProb, p.LocProb = 0.60, 0.30
	}
	if p.BindProb == 0 {
		p.BindProb = 0.01
	}
	if p.ReadProb == 0 {
		p.ReadProb = 0.01
	}
	if p.CacheLineSize == 0 {
		p.CacheLineSize = 1
	}
	if p.MaxLocals == 0 {
		p.MaxLocals = 2
	}
	return p
}

// Result reports one run.
type Result struct {
	Machine core.MachineStats
	Timing  core.TimingStats

	PeakLPT int
	AvgLPT  float64

	// OccSum/OccSamples are the integer occupancy integral behind AvgLPT
	// (AvgLPT = OccSum/OccSamples). They are kept exact so sharded runs
	// can merge occupancy associatively (see merge.go).
	OccSum     int64
	OccSamples int64

	// LPTHits/LPTMisses restate the access outcome counts.
	LPTHits   int64
	LPTMisses int64

	CacheHits   int64
	CacheMisses int64

	// TrueOverflowed reports whether the run ever entered overflow mode.
	TrueOverflowed bool

	// Events is the number of primitive events replayed.
	Events int
}

// LPTHitRate returns the LPT hit percentage.
func (r *Result) LPTHitRate() float64 {
	t := r.LPTHits + r.LPTMisses
	if t == 0 {
		return 0
	}
	return 100 * float64(r.LPTHits) / float64(t)
}

// CacheHitRate returns the cache hit percentage.
func (r *Result) CacheHitRate() float64 {
	t := r.CacheHits + r.CacheMisses
	if t == 0 {
		return 0
	}
	return 100 * float64(r.CacheHits) / float64(t)
}

// stackItem is one simulated binding-stack slot.
type stackItem struct {
	val  core.Value
	addr int64 // synthetic heap address of the object (cache model)
}

type frame struct {
	args   []int // indices into the stack
	locals []int
	temps  []int
	base   int
}

// clearReuse empties the frame's index lists while keeping their backing
// arrays, so re-entering a pooled frame slot allocates nothing.
func (f *frame) clearReuse(base int) {
	f.args = f.args[:0]
	f.locals = f.locals[:0]
	f.temps = f.temps[:0]
	f.base = base
}

// simulator is the run state.
type simulator struct {
	p     Params
	m     *core.Machine
	model *clark.Model
	cache *cache.Cache
	// cacheBuf keeps the cache allocation alive across pooled runs even
	// when the current run simulates no cache (cache == nil).
	cacheBuf *cache.Cache
	stack    []stackItem
	frames   []frame
	// lastResult is the previous primitive's return value for chaining.
	lastResult stackItem
	haveLast   bool
	// nextAddr is the synthetic address counter (§5.2.5).
	nextAddr int64
	// addrOf maps live LPT identifiers to synthetic addresses.
	addrOf map[core.EntryID]int64
}

// simPool recycles simulator run state — the machine's LPT and heap
// arrays, the binding stack, the frame list, and the address map — so
// that sweeps replaying the same trace thousands of times (knee finding,
// multi-seed studies) stop exercising the allocator and the GC. Each
// sim.Run owns one pooled simulator for its whole duration; the pool is
// what keeps the parallel sweep engine's speedup from being eaten by GC
// pressure.
var simPool = sync.Pool{New: func() any { return new(simulator) }}

// reset prepares pooled state for a fresh run under p, reusing every
// allocation whose capacity suffices. A reset simulator behaves
// identically to a freshly constructed one.
func (s *simulator) reset(p Params) {
	s.p = p
	cfg := core.Config{
		LPTSize:          p.TableSize,
		HeapCells:        p.HeapCells,
		Policy:           p.Policy,
		Decrement:        p.Decrement,
		SplitStackCounts: p.SplitStackCounts,
		FreeList:         p.FreeList,
		Timing:           p.Timing,
	}
	if s.m == nil {
		s.m = core.NewMachine(cfg)
	} else {
		s.m.Reset(cfg)
	}
	if s.model == nil {
		s.model = clark.New(p.Seed)
	} else {
		s.model.Reseed(p.Seed)
	}
	s.cache = nil
	if p.CacheEntries > 0 {
		lines := p.CacheEntries / p.CacheLineSize
		if lines < 1 {
			lines = 1
		}
		if s.cacheBuf == nil {
			s.cacheBuf = cache.New(lines, p.CacheLineSize)
		} else {
			s.cacheBuf.Reset(lines, p.CacheLineSize)
		}
		s.cache = s.cacheBuf
	}
	s.stack = s.stack[:0]
	s.frames = s.frames[:0]
	s.lastResult = stackItem{}
	s.haveLast = false
	s.nextAddr = 0
	if s.addrOf == nil {
		s.addrOf = make(map[core.EntryID]int64)
	} else {
		clear(s.addrOf)
	}
}

// Run replays the stream under p.
func Run(st *trace.Stream, p Params) (*Result, error) {
	return RunCtx(context.Background(), st, p)
}

// cancelCheckMask sets how often the replay loop polls the context: every
// 4096 events, cheap against the per-event work yet fine-grained enough
// that an abandoned run stops within microseconds.
const cancelCheckMask = 1<<12 - 1

// RunCtx replays the stream under p, aborting with ctx.Err() when ctx is
// cancelled. The replay loop polls the context every few thousand events,
// so a server request that dies mid-simulation releases its worker
// promptly instead of replaying the rest of the trace.
func RunCtx(ctx context.Context, st *trace.Stream, p Params) (*Result, error) {
	return RunSourceCtx(ctx, &sliceSource{refs: st.Refs}, p)
}

// RefSource feeds the replay loop one block of refs at a time.
// NextBlock returns io.EOF after the last block; a returned slice is
// only guaranteed valid until the next NextBlock call, which lets
// sources recycle decode buffers (trace.BlockPrefetcher does).
type RefSource interface {
	NextBlock() ([]trace.Ref, error)
}

// sliceSource adapts a fully materialized ref slice to RefSource:
// one block holding everything, then EOF.
type sliceSource struct {
	refs []trace.Ref
	done bool
}

func (s *sliceSource) NextBlock() ([]trace.Ref, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	return s.refs, nil
}

// RunSource replays the blocks of src under p.
func RunSource(src RefSource, p Params) (*Result, error) {
	return RunSourceCtx(context.Background(), src, p)
}

// RunSourceCtx replays the blocks of src under p. Event indices in
// error messages and the context-poll cadence are global across
// blocks, so a run driven block-by-block behaves identically to the
// same refs replayed through RunCtx.
func RunSourceCtx(ctx context.Context, src RefSource, p Params) (*Result, error) {
	p = p.withDefaults()
	s := simPool.Get().(*simulator)
	defer simPool.Put(s)
	s.reset(p)
	// Top-level frame with a few global list bindings, so non-local
	// selection has material from the start.
	s.pushFrame(0)
	for i := 0; i < 4; i++ {
		if err := s.freshObject(-1); err != nil {
			return nil, err
		}
	}

	done := ctx.Done()
	events := 0
	i := 0 // global event index across blocks
	for {
		refs, err := src.NextBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for j := range refs {
			if done != nil && i&cancelCheckMask == 0 {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			r := &refs[j]
			switch r.Kind {
			case trace.RefEnter:
				if err := s.enter(r.NArgs); err != nil {
					return nil, fmt.Errorf("sim: event %d: %w", i, err)
				}
			case trace.RefExit:
				s.exit()
			case trace.RefPrim:
				events++
				if err := s.prim(r); err != nil {
					return nil, fmt.Errorf("sim: event %d (%s): %w", i, trace.OpName(r.Op), err)
				}
			}
			i++
		}
	}

	res := &Result{
		Machine: s.m.Stats(),
		Timing:  s.m.Timing(),
		PeakLPT: s.m.PeakInUse(),
		AvgLPT:  s.m.AvgOccupancy(),
		Events:  events,
	}
	res.OccSum, res.OccSamples = s.m.OccupancySums()
	res.LPTHits = res.Machine.LPT.Hits
	res.LPTMisses = res.Machine.LPT.Misses
	res.TrueOverflowed = res.Machine.ModeSwitches > 0
	if s.cache != nil {
		res.CacheHits = s.cache.Hits()
		res.CacheMisses = s.cache.Misses()
	}
	return res, nil
}

func (s *simulator) pushFrame(nargs int) {
	// Reuse a previously popped frame slot (and its index-list storage)
	// when the backing array still has room: function enter/exit is the
	// hottest pair in the replay loop.
	if len(s.frames) < cap(s.frames) {
		s.frames = s.frames[:len(s.frames)+1]
		s.frames[len(s.frames)-1].clearReuse(len(s.stack))
	} else {
		s.frames = append(s.frames, frame{base: len(s.stack)})
	}
	_ = nargs
}

// freshObject reads a new random list into the stack (slot < 0 appends).
func (s *simulator) freshObject(slot int) error {
	sh := s.model.SampleShape()
	met := sh.Metrics()
	cells := met.N + met.P // two-pointer footprint (Fig 3.2)
	var prev core.Value
	if slot >= 0 {
		prev = s.stack[slot].val
	}
	val, err := s.m.ReadShape(sh, prev)
	if err != nil {
		return err
	}
	addr := s.nextAddr
	s.nextAddr += int64(cells)
	s.recordAddr(val, addr)
	item := stackItem{val: val, addr: addr}
	if slot >= 0 {
		s.stack[slot] = item
	} else {
		s.stack = append(s.stack, item)
		f := &s.frames[len(s.frames)-1]
		f.locals = append(f.locals, len(s.stack)-1)
	}
	return nil
}

// enter simulates a function call (§5.2.1): one stack item per argument,
// each randomly bound to something older on the stack, then a few locals.
func (s *simulator) enter(nargs int) error {
	s.pushFrame(nargs)
	f := &s.frames[len(s.frames)-1]
	for i := 0; i < nargs; i++ {
		item := s.randomOlder()
		s.m.Retain(item.val)
		s.stack = append(s.stack, item)
		f.args = append(f.args, len(s.stack)-1)
	}
	nloc := s.model.Intn(s.p.MaxLocals + 1)
	for i := 0; i < nloc; i++ {
		item := s.randomOlder()
		s.m.Retain(item.val)
		s.stack = append(s.stack, item)
		f.locals = append(f.locals, len(s.stack)-1)
	}
	return nil
}

// exit pops the newest frame, releasing every binding (the EP's burst of
// reference-count decrements on function return, §5.3.3).
func (s *simulator) exit() {
	if len(s.frames) <= 1 {
		return
	}
	f := s.frames[len(s.frames)-1]
	for i := len(s.stack) - 1; i >= f.base; i-- {
		s.m.Release(s.stack[i].val)
	}
	s.stack = s.stack[:f.base]
	s.frames = s.frames[:len(s.frames)-1]
	s.haveLast = false
}

// randomOlder picks a random existing stack item (or nil if empty).
func (s *simulator) randomOlder() stackItem {
	if len(s.stack) == 0 {
		return stackItem{val: core.NilValue}
	}
	return s.stack[s.model.Intn(len(s.stack))]
}

// selectArg chooses the primitive's argument slot per the probability
// parameters, returning a stack index.
func (s *simulator) selectArg() int {
	f := &s.frames[len(s.frames)-1]
	r := s.model.Float64()
	pick := func(idxs []int) int {
		if len(idxs) == 0 {
			return -1
		}
		return idxs[s.model.Intn(len(idxs))]
	}
	var slot int = -1
	switch {
	case r < s.p.ArgProb:
		slot = pick(f.args)
	case r < s.p.ArgProb+s.p.LocProb:
		slot = pick(f.locals)
	default:
		// non-local: anything below the current frame
		if f.base > 0 {
			slot = s.model.Intn(f.base)
		}
	}
	if slot < 0 {
		// fall back to any stack slot
		if len(s.stack) == 0 {
			return -1
		}
		slot = s.model.Intn(len(s.stack))
	}
	return slot
}

// argument resolves the primitive's list argument, honouring the chain
// flag and ReadProb.
func (s *simulator) argument(r *trace.Ref) (stackItem, error) {
	if r.Chain && s.haveLast && isListVal(s.lastResult.val) {
		// The previous result is the argument (primitive chaining). In the
		// original trace it was a list; our reconstruction may have walked
		// off the structure, in which case we fall through to selection.
		return s.lastResult, nil
	}
	slot := s.selectArg()
	if slot < 0 {
		if err := s.freshObject(-1); err != nil {
			return stackItem{}, err
		}
		return s.stack[len(s.stack)-1], nil
	}
	// With ReadProb, a new object was read into this variable since the
	// last access.
	if s.model.Float64() < s.p.ReadProb {
		if err := s.freshObject(slot); err != nil {
			return stackItem{}, err
		}
	}
	item := s.stack[slot]
	// List primitives need list arguments; refresh non-lists.
	if !isListVal(item.val) {
		if err := s.freshObject(slot); err != nil {
			return stackItem{}, err
		}
		item = s.stack[slot]
	}
	return item, nil
}

func isListVal(v core.Value) bool {
	return v.Kind == core.VList || v.Kind == core.VHeap
}

// retryArg replaces a stale argument (an overflow-mode address whose cell
// was reclaimed while the LPT was bypassed — the consistency hazard of
// §4.3.2.3) with a fresh object.
func (s *simulator) retryArg() (stackItem, error) {
	if err := s.freshObject(-1); err != nil {
		return stackItem{}, err
	}
	return s.stack[len(s.stack)-1], nil
}

// recordAddr tracks the synthetic address of a list value.
func (s *simulator) recordAddr(v core.Value, addr int64) {
	if v.Kind == core.VList {
		s.addrOf[v.ID] = addr
	}
}

func (s *simulator) addrFor(item stackItem) int64 {
	if item.val.Kind == core.VList {
		if a, ok := s.addrOf[item.val.ID]; ok {
			return a
		}
	}
	return item.addr
}

// childAddr assigns an address to a split child per §5.2.5: an offset
// from the parent drawn from Clark's pointer distance distributions.
func (s *simulator) childAddr(parent int64, isCar bool) int64 {
	if isCar {
		return parent + s.model.CarDistance()
	}
	return parent + s.model.CdrDistance()
}

// deliver handles a primitive result: bind it to a random variable with
// BindProb, else push it as a temporary in the current frame.
func (s *simulator) deliver(v core.Value, addr int64) {
	item := stackItem{val: v, addr: addr}
	s.lastResult = item
	s.haveLast = true
	if s.model.Float64() < s.p.BindProb && len(s.stack) > 0 {
		slot := s.model.Intn(len(s.stack))
		s.m.Release(s.stack[slot].val)
		s.stack[slot] = item
		return
	}
	s.stack = append(s.stack, item)
	f := &s.frames[len(s.frames)-1]
	f.temps = append(f.temps, len(s.stack)-1)
}

// prim replays one primitive event. Dispatch is on interned opcodes —
// an integer compare per event instead of a string compare; op names
// are only materialized (via trace.OpName) on error paths.
func (s *simulator) prim(r *trace.Ref) error {
	switch r.Op {
	case trace.OpCar, trace.OpCdr:
		arg, err := s.argument(r)
		if err != nil {
			return err
		}
		pAddr := s.addrFor(arg)
		s.cacheAccess(pAddr)
		isCar := r.Op == trace.OpCar
		var out core.Value
		access := func(v core.Value) (core.Value, error) {
			if isCar {
				return s.m.Car(v)
			}
			return s.m.Cdr(v)
		}
		out, err = access(arg.val)
		if err != nil {
			// Stale overflow-mode address: refresh and retry once.
			arg, err = s.retryArg()
			if err != nil {
				return err
			}
			out, err = access(arg.val)
			if err != nil {
				return err
			}
			pAddr = s.addrFor(arg)
		}
		cAddr := s.childAddr(pAddr, isCar)
		s.recordAddr(out, cAddr)
		s.deliver(out, cAddr)
	case trace.OpCons:
		x, err := s.argument(r)
		if err != nil {
			return err
		}
		y := s.randomOlder()
		out, err := s.m.Cons(x.val, y.val)
		if err != nil {
			return err
		}
		// A cons lives in the LPT; its heap address is assigned only when
		// materialised. For the cache model give it a fresh address (the
		// cache must store it eventually).
		addr := s.nextAddr
		s.nextAddr++
		s.recordAddr(out, addr)
		s.cacheAccess(addr)
		s.deliver(out, addr)
	case trace.OpRplaca, trace.OpRplacd:
		x, err := s.argument(r)
		if err != nil {
			return err
		}
		y := s.randomOlder()
		s.cacheAccess(s.addrFor(x))
		doRplac := func(v core.Value) error {
			if r.Op == trace.OpRplaca {
				return s.m.Rplaca(v, y.val)
			}
			return s.m.Rplacd(v, y.val)
		}
		if err := doRplac(x.val); err != nil {
			x, err = s.retryArg()
			if err != nil {
				return err
			}
			if err := doRplac(x.val); err != nil {
				return err
			}
		}
		s.lastResult = x
		s.haveLast = true
	case trace.OpRead:
		if err := s.freshObject(-1); err != nil {
			return err
		}
		item := s.stack[len(s.stack)-1]
		s.lastResult = item
		s.haveLast = true
	default:
		// Other primitives (member, length inner steps are already
		// expanded to car/cdr by the tracer); treat unknown access ops as
		// cdr-like traversal steps.
		arg, err := s.argument(r)
		if err != nil {
			return err
		}
		s.cacheAccess(s.addrFor(arg))
		out, err := s.m.Cdr(arg.val)
		if err != nil {
			arg, err = s.retryArg()
			if err != nil {
				return err
			}
			out, err = s.m.Cdr(arg.val)
			if err != nil {
				return err
			}
		}
		s.deliver(out, s.childAddr(s.addrFor(arg), false))
	}
	return nil
}

func (s *simulator) cacheAccess(addr int64) {
	if s.cache != nil {
		s.cache.Access(addr)
	}
}
