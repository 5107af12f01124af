package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/sexpr"
)

// ValueKind discriminates the values the LP returns to the EP.
type ValueKind uint8

const (
	// VNil is the nil object.
	VNil ValueKind = iota
	// VAtom is an atom, passed with its type tag.
	VAtom
	// VList is a list object named by an LPT identifier.
	VList
	// VHeap is an overflow-mode "large identifier": a raw heap address
	// used while the LPT is bypassed (§4.3.2.3).
	VHeap
)

// Value is an EP-visible datum.
type Value struct {
	Kind ValueKind
	Atom heap.Word // VAtom
	ID   EntryID   // VList
	Addr heap.Word // VHeap
}

// NilValue is the nil Value.
var NilValue = Value{Kind: VNil}

// MachineStats aggregates the counters reported in Chapter 5.
type MachineStats struct {
	LPT        LPTStats
	HeapSplits int64
	HeapMerges int64
	ReadLists  int64
	// StackRefEvents counts every EP-side retain/release — the EP–LP
	// message traffic of the unsplit design ("Then" in Table 5.3).
	StackRefEvents int64
	// EPLPMessages counts the messages actually crossing the EP–LP bus
	// under split stack counts ("Now" in Table 5.3). Without split counts
	// it equals StackRefEvents.
	EPLPMessages int64
	// EPRefops counts count arithmetic performed in the EP-side table.
	EPRefops   int64
	MaxRef     int32
	MaxEPCount int32
	// OverflowOps counts operations executed in overflow mode; LeakedConses
	// counts overflow-mode allocations the LPT never tracked.
	OverflowOps  int64
	LeakedConses int64
	ModeSwitches int64
}

// Config parameterises a Machine.
type Config struct {
	// LPTSize is the number of LPT entries (thesis sweeps 40–4096).
	LPTSize int
	// HeapCells sizes the two-pointer heap below the heap controller.
	HeapCells int
	// Policy selects pseudo-overflow compression (default CompressOne).
	Policy CompressionPolicy
	// Decrement selects lazy (SMALL) or recursive child decrement.
	Decrement DecrementPolicy
	// SplitStackCounts enables the Table 5.3 optimisation: stack
	// references are counted in an EP-side table and only zero-crossings
	// are signalled to the LP.
	SplitStackCounts bool
	// FreeList selects the freed-entry reuse discipline (default
	// FreeStack, the SMALL design choice).
	FreeList FreeDiscipline
	// Timing, when non-nil, drives the Fig 4.10–4.13 overlap model.
	Timing *TimingParams
}

// Machine is one SMALL node: LPT + heap controller + the EP-side
// reference bookkeeping. The EP's environment and control stack live with
// the client (the simulator or an application); the machine exposes the
// LP request interface of §4.3.2.2 plus Retain/Release for binding
// lifetime management.
type Machine struct {
	lpt    *lpt
	heap   *heap.TwoPtr
	policy CompressionPolicy
	split  bool
	// epCounts is the EP-side stack reference count table of §5.3.3,
	// indexed by entry identifier (slice rather than map: Retain/Release
	// run once per simulated binding event, so count arithmetic must not
	// allocate or hash).
	epCounts            []int32
	overflow            bool
	outstandingHeapVals int
	stats               MachineStats
	tl                  *timeline
	// atomText caches printed atom texts by atom-table index for
	// AppendTextOf; Reset empties it alongside the atom table.
	atomText []string
}

// NewMachine builds a SMALL machine from cfg, applying thesis-scale
// defaults for unset fields (2K LPT entries, §5.4).
func NewMachine(cfg Config) *Machine {
	m := &Machine{}
	m.Reset(cfg)
	return m
}

// Reset reinitialises the machine for a fresh run under cfg, reusing the
// LPT entry array, EP count table, and heap cell storage already
// allocated when their capacities suffice. A reset machine behaves
// identically to NewMachine(cfg); the experiment sweeps pool machines
// through sim.Run so repeated simulation points stop hammering the
// allocator with multi-megabyte table and heap arrays.
func (m *Machine) Reset(cfg Config) {
	if cfg.LPTSize <= 0 {
		cfg.LPTSize = 2048
	}
	if cfg.HeapCells <= 0 {
		cfg.HeapCells = 1 << 18
	}
	if m.lpt == nil {
		m.lpt = newLPT(cfg.LPTSize, cfg.Decrement, cfg.FreeList)
	} else {
		m.lpt.reset(cfg.LPTSize, cfg.Decrement, cfg.FreeList)
	}
	if m.heap == nil {
		m.heap = heap.NewTwoPtr(cfg.HeapCells)
	} else {
		m.heap.Reset(cfg.HeapCells)
	}
	m.policy = cfg.Policy
	m.split = cfg.SplitStackCounts
	if m.split {
		if cap(m.epCounts) >= cfg.LPTSize+1 {
			m.epCounts = m.epCounts[:cfg.LPTSize+1]
			clear(m.epCounts)
		} else {
			m.epCounts = make([]int32, cfg.LPTSize+1)
		}
	} else {
		m.epCounts = nil
	}
	m.overflow = false
	m.outstandingHeapVals = 0
	m.stats = MachineStats{}
	m.atomText = m.atomText[:0]
	m.tl = nil
	if cfg.Timing != nil {
		m.tl = newTimeline(*cfg.Timing)
	}
}

// Heap exposes the underlying heap (read-only use intended).
func (m *Machine) Heap() *heap.TwoPtr { return m.heap }

// Stats returns a snapshot of the counters.
func (m *Machine) Stats() MachineStats {
	s := m.stats
	s.LPT = m.lpt.stats
	if !m.split {
		s.EPLPMessages = s.StackRefEvents
	}
	return s
}

// InUse returns the number of live LPT entries.
func (m *Machine) InUse() int { return m.lpt.inUse }

// PeakInUse returns the LPT occupancy high-water mark (Fig 5.1's y-axis).
func (m *Machine) PeakInUse() int { return m.lpt.peak }

// AvgOccupancy returns the mean LPT occupancy sampled at each allocation
// (Fig 5.3's y-axis).
func (m *Machine) AvgOccupancy() float64 {
	if m.lpt.occupancySamples == 0 {
		return 0
	}
	return float64(m.lpt.occupancySum) / float64(m.lpt.occupancySamples)
}

// OccupancySums returns the integer occupancy integral behind
// AvgOccupancy: the sum of LPT occupancy sampled at each allocation and
// the number of samples. Exposing the raw sums (rather than only their
// quotient) lets sharded simulation runs merge occupancy exactly in
// integer arithmetic — float averages of averages are not associative.
func (m *Machine) OccupancySums() (sum, samples int64) {
	return m.lpt.occupancySum, m.lpt.occupancySamples
}

// OverflowMode reports whether the machine is in degraded overflow mode.
func (m *Machine) OverflowMode() bool { return m.overflow }

// DrainHeapFrees services the heap controller's free queue, reclaiming
// the heap space behind released list objects. Returns cells freed.
func (m *Machine) DrainHeapFrees() int {
	freed := 0
	for _, w := range m.lpt.pendingHeapFrees {
		freed += m.heap.FreeTree(w)
	}
	m.lpt.pendingHeapFrees = m.lpt.pendingHeapFrees[:0]
	return freed
}

// trackRef records refcount extrema for Table 5.3.
func (m *Machine) trackRef(id EntryID) {
	if r := m.lpt.get(id).ref; r > m.stats.MaxRef {
		m.stats.MaxRef = r
	}
}

// retained marks a freshly returned list value as held by the EP.
func (m *Machine) retained(id EntryID) Value {
	v := Value{Kind: VList, ID: id}
	m.Retain(v)
	return v
}

// Retain records an EP-side reference to v: binding it to a variable,
// pushing it on the control stack, or duplicating it.
func (m *Machine) Retain(v Value) {
	switch v.Kind {
	case VList:
		m.stats.StackRefEvents++
		if m.split {
			m.stats.EPRefops++
			c := m.epCounts[v.ID] + 1
			m.epCounts[v.ID] = c
			if c > m.stats.MaxEPCount {
				m.stats.MaxEPCount = c
			}
			if c == 1 {
				// zero-crossing: tell the LP to set the stack bit
				m.stats.EPLPMessages++
				m.lpt.get(v.ID).stackBit = true
			}
		} else {
			m.lpt.incRef(v.ID)
			m.trackRef(v.ID)
		}
	case VHeap:
		m.outstandingHeapVals++
	}
}

// Release records the end of an EP-side reference: a binding popped on
// function return, a temporary consumed.
func (m *Machine) Release(v Value) {
	switch v.Kind {
	case VList:
		m.stats.StackRefEvents++
		if m.split {
			m.stats.EPRefops++
			c := m.epCounts[v.ID] - 1
			if c <= 0 {
				m.epCounts[v.ID] = 0
				// zero-crossing: clear the stack bit; the entry dies if no
				// internal references remain.
				m.stats.EPLPMessages++
				e := m.lpt.get(v.ID)
				e.stackBit = false
				if e.inUse && e.ref <= 0 {
					m.lpt.freeEntry(v.ID)
				}
			} else {
				m.epCounts[v.ID] = c
			}
		} else {
			m.lpt.decRef(v.ID)
		}
	case VHeap:
		m.outstandingHeapVals--
		if m.outstandingHeapVals <= 0 && m.overflow {
			// All large identifiers returned: switch back to fast mode
			// (§4.3.2.3).
			m.overflow = false
			m.outstandingHeapVals = 0
			m.stats.ModeSwitches++
		}
	}
}

// wordToValue wraps a heap word as an EP value without creating entries.
func wordToValue(w heap.Word) Value {
	switch w.Tag {
	case heap.TagNil:
		return NilValue
	case heap.TagAtom, heap.TagInt:
		return Value{Kind: VAtom, Atom: w}
	default:
		return Value{Kind: VHeap, Addr: w}
	}
}

// enterOverflow switches to overflow mode.
func (m *Machine) enterOverflow() {
	if !m.overflow {
		m.overflow = true
		m.stats.ModeSwitches++
	}
}

// ReadList reads list data into the heap and returns its identifier
// (§4.3.2.2.1). prev, when a list, is the object previously bound to the
// variable being read into; its reference is released first.
func (m *Machine) ReadList(v sexpr.Value, prev Value) (Value, error) {
	if prev.Kind == VList || prev.Kind == VHeap {
		m.Release(prev)
	}
	m.stats.ReadLists++
	w, err := m.heap.Build(v)
	if err != nil {
		return NilValue, err
	}
	m.timeReadList()
	if w.Tag != heap.TagCell {
		return wordToValue(w), nil
	}
	id, err := m.allocEntry()
	if err != nil {
		m.enterOverflow()
		m.stats.OverflowOps++
		hv := Value{Kind: VHeap, Addr: w}
		m.Retain(hv)
		return hv, nil
	}
	e := m.lpt.get(id)
	e.addr = w
	e.hasAddr = true
	return m.retained(id), nil
}

// childValue converts a child field into an EP value, retaining entries.
func (m *Machine) childValue(c child) Value {
	switch c.kind {
	case childNil:
		return NilValue
	case childAtom:
		return Value{Kind: VAtom, Atom: c.atom()}
	case childEntry:
		return m.retained(c.id)
	default:
		return NilValue
	}
}

// wordToChild wraps a heap word as a child field, creating an entry for
// cell words. The new entry's count reflects the parent's field reference.
func (m *Machine) wordToChild(w heap.Word) (child, error) {
	switch w.Tag {
	case heap.TagNil:
		return child{kind: childNil}, nil
	case heap.TagAtom, heap.TagInt:
		return atomChild(w), nil
	default:
		id, err := m.allocEntry()
		if err != nil {
			return child{}, err
		}
		e := m.lpt.get(id)
		e.addr = w
		e.hasAddr = true
		e.ref = 1 // the parent's field
		m.lpt.stats.Refops++
		return child{kind: childEntry, id: id}, nil
	}
}

// discardChildEntry rolls back a child entry created during a failed
// expand: the entry is dropped without queueing its heap object, which
// still belongs to the intact parent structure.
func (m *Machine) discardChildEntry(c child) {
	if c.kind != childEntry {
		return
	}
	ce := m.lpt.get(c.id)
	ce.hasAddr = false
	ce.ref = 0
	m.lpt.freeEntry(c.id)
}

// expand splits the heap object behind an unexpanded entry, filling its
// car and cdr fields (Figs 4.4/4.5). The split consumes the parent's heap
// cell. If the LPT cannot hold the child entries, the parent is left
// untouched and ErrLPTFull is returned so the caller can degrade to
// overflow mode.
func (m *Machine) expand(id EntryID) error {
	e := m.lpt.get(id)
	if !e.hasAddr {
		return fmt.Errorf("core: entry %d has neither children nor address", id)
	}
	addr := e.addr
	carW, err := m.heap.Car(addr)
	if err != nil {
		return err
	}
	cdrW, err := m.heap.Cdr(addr)
	if err != nil {
		return err
	}
	car, err := m.wordToChild(carW)
	if err != nil {
		return err
	}
	cdr, err := m.wordToChild(cdrW)
	if err != nil {
		m.discardChildEntry(car)
		return err
	}
	// Commit: the parent cell is consumed by the split (§4.3.3.2).
	e = m.lpt.get(id) // allocEntry above may have run compression
	e.hasAddr = false
	e.car, e.cdr = car, cdr
	if err := m.heap.FreeCell(addr.Val); err != nil {
		return err
	}
	m.stats.HeapSplits++
	m.lpt.stats.Misses++
	return nil
}

// access implements car and cdr (§4.3.2.2.2).
func (m *Machine) access(v Value, wantCar bool) (Value, error) {
	opName := "cdr"
	if wantCar {
		opName = "car"
	}
	switch v.Kind {
	case VHeap:
		// Overflow-mode access: straight heap read, no caching.
		m.stats.OverflowOps++
		var w heap.Word
		var err error
		if wantCar {
			w, err = m.heap.Car(v.Addr)
		} else {
			w, err = m.heap.Cdr(v.Addr)
		}
		if err != nil {
			return NilValue, err
		}
		out := wordToValue(w)
		m.Retain(out)
		m.timeAccess(false)
		return out, nil
	case VList:
		if !m.lpt.valid(v.ID) {
			return NilValue, fmt.Errorf("core: %s of stale identifier %d", opName, v.ID)
		}
		e := m.lpt.get(v.ID)
		field := &e.cdr
		if wantCar {
			field = &e.car
		}
		if field.kind == childUnset {
			if err := m.expand(v.ID); err != nil {
				if err != ErrLPTFull {
					return NilValue, err
				}
				// No room for child entries: the parent object is intact;
				// serve the access straight from the heap in overflow
				// mode, uncached (§4.3.2.3).
				e = m.lpt.get(v.ID)
				m.enterOverflow()
				m.stats.OverflowOps++
				var w heap.Word
				var herr error
				if wantCar {
					w, herr = m.heap.Car(e.addr)
				} else {
					w, herr = m.heap.Cdr(e.addr)
				}
				if herr != nil {
					return NilValue, herr
				}
				out := wordToValue(w)
				m.Retain(out)
				return out, nil
			}
			m.timeAccess(false)
		} else {
			m.lpt.stats.Hits++
			m.timeAccess(true)
		}
		e = m.lpt.get(v.ID)
		if wantCar {
			return m.childValue(e.car), nil
		}
		return m.childValue(e.cdr), nil
	case VNil, VAtom:
		return NilValue, fmt.Errorf("core: %s of non-list", opName)
	}
	return NilValue, fmt.Errorf("core: bad value kind %d", v.Kind)
}

// Car returns the car of v (§4.3.2.2.2).
func (m *Machine) Car(v Value) (Value, error) { return m.access(v, true) }

// Cdr returns the cdr of v.
func (m *Machine) Cdr(v Value) (Value, error) { return m.access(v, false) }

// valueToChild converts an EP value into a child field. The field takes
// its own reference on entry values.
func (m *Machine) valueToChild(v Value) (child, error) {
	switch v.Kind {
	case VNil:
		return child{kind: childNil}, nil
	case VAtom:
		return atomChild(v.Atom), nil
	case VList:
		if !m.lpt.valid(v.ID) {
			return child{}, fmt.Errorf("core: stale identifier %d", v.ID)
		}
		m.lpt.incRef(v.ID)
		m.trackRef(v.ID)
		return child{kind: childEntry, id: v.ID}, nil
	case VHeap:
		// Overflow-mode value: store as an opaque atom-like heap pointer
		// is unsound; instead keep it unexpanded by merging later. We
		// materialise a child entry only if the LPT has room.
		id, err := m.allocEntry()
		if err != nil {
			return child{}, err
		}
		e := m.lpt.get(id)
		e.addr = v.Addr
		e.hasAddr = true
		e.ref = 1
		m.lpt.stats.Refops++
		return child{kind: childEntry, id: id}, nil
	}
	return child{}, fmt.Errorf("core: bad value kind %d", v.Kind)
}

// Cons builds a new list object purely in the LPT (§4.3.2.2.4): no heap
// activity occurs; the structure exists as endo-structure until
// compression materialises it.
func (m *Machine) Cons(x, y Value) (Value, error) {
	id, err := m.allocEntry()
	if err != nil {
		// Overflow mode: cons directly in the heap (§4.3.2.3).
		m.enterOverflow()
		return m.overflowCons(x, y)
	}
	car, err := m.valueToChild(x)
	if err != nil {
		m.lpt.get(id).ref = 0
		m.lpt.freeEntry(id)
		if err == ErrLPTFull {
			// No room to track an overflow-mode argument: cons in the heap.
			m.enterOverflow()
			return m.overflowCons(x, y)
		}
		return NilValue, err
	}
	cdr, err := m.valueToChild(y)
	if err != nil {
		m.lpt.decChild(car)
		m.lpt.get(id).ref = 0
		m.lpt.freeEntry(id)
		if err == ErrLPTFull {
			m.enterOverflow()
			return m.overflowCons(x, y)
		}
		return NilValue, err
	}
	e := m.lpt.get(id)
	e.car, e.cdr = car, cdr
	m.timeCons()
	return m.retained(id), nil
}

// overflowCons allocates directly in the heap while the LPT is bypassed.
func (m *Machine) overflowCons(x, y Value) (Value, error) {
	m.stats.OverflowOps++
	m.stats.LeakedConses++
	carW, err := m.valueToWord(x)
	if err != nil {
		return NilValue, err
	}
	cdrW, err := m.valueToWord(y)
	if err != nil {
		return NilValue, err
	}
	w, err := m.heap.Merge(carW, cdrW)
	if err != nil {
		return NilValue, err
	}
	m.stats.HeapMerges++
	out := Value{Kind: VHeap, Addr: w}
	m.Retain(out)
	return out, nil
}

// replace implements rplaca/rplacd (§4.3.2.2.3): the object is split
// first if its fields are not yet computed, then the field is swapped
// with reference count maintenance.
func (m *Machine) replace(x, y Value, replaceCar bool) error {
	if x.Kind == VHeap {
		m.stats.OverflowOps++
		w, err := m.valueToWord(y)
		if err != nil {
			return err
		}
		if replaceCar {
			return m.heap.Rplaca(x.Addr, w)
		}
		return m.heap.Rplacd(x.Addr, w)
	}
	if x.Kind != VList {
		return fmt.Errorf("core: rplac of non-list")
	}
	if !m.lpt.valid(x.ID) {
		return fmt.Errorf("core: rplac of stale identifier %d", x.ID)
	}
	e := m.lpt.get(x.ID)
	if e.car.kind == childUnset && e.cdr.kind == childUnset {
		if err := m.expand(x.ID); err != nil {
			if err == ErrLPTFull {
				m.enterOverflow()
			}
			return err
		}
		e = m.lpt.get(x.ID)
	} else {
		m.lpt.stats.Hits++
	}
	newChild, err := m.valueToChild(y)
	if err != nil {
		if err == ErrLPTFull {
			m.enterOverflow()
		}
		return err
	}
	e = m.lpt.get(x.ID)
	var old child
	if replaceCar {
		old, e.car = e.car, newChild
	} else {
		old, e.cdr = e.cdr, newChild
	}
	m.lpt.decChild(old)
	m.timeRplac()
	return nil
}

// Rplaca replaces the car of x with y.
func (m *Machine) Rplaca(x, y Value) error { return m.replace(x, y, true) }

// Rplacd replaces the cdr of x with y.
func (m *Machine) Rplacd(x, y Value) error { return m.replace(x, y, false) }

// Copy produces an independent copy of v, used by the EP before modifying
// call-by-value parameters (§4.3.1).
func (m *Machine) Copy(v Value) (Value, error) {
	switch v.Kind {
	case VNil, VAtom:
		return v, nil
	}
	sv, err := m.ValueOf(v)
	if err != nil {
		return NilValue, err
	}
	return m.ReadList(sv, NilValue)
}

// valueToWord materialises any EP value as a heap word, writing LPT
// endo-structure back to the heap as needed (used by overflow mode).
func (m *Machine) valueToWord(v Value) (heap.Word, error) {
	switch v.Kind {
	case VNil:
		return heap.NilWord, nil
	case VAtom:
		return v.Atom, nil
	case VHeap:
		return v.Addr, nil
	case VList:
		if !m.lpt.valid(v.ID) {
			return heap.NilWord, fmt.Errorf("core: stale identifier %d", v.ID)
		}
		e := m.lpt.get(v.ID)
		if e.hasAddr {
			return e.addr, nil
		}
		carW, err := m.childToWordDeep(e.car)
		if err != nil {
			return heap.NilWord, err
		}
		cdrW, err := m.childToWordDeep(e.cdr)
		if err != nil {
			return heap.NilWord, err
		}
		w, err := m.heap.Merge(carW, cdrW)
		if err != nil {
			return heap.NilWord, err
		}
		m.stats.HeapMerges++
		return w, nil
	}
	return heap.NilWord, fmt.Errorf("core: bad value kind %d", v.Kind)
}

func (m *Machine) childToWordDeep(c child) (heap.Word, error) {
	switch c.kind {
	case childNil:
		return heap.NilWord, nil
	case childAtom:
		return c.atom(), nil
	case childEntry:
		return m.valueToWord(Value{Kind: VList, ID: c.id})
	default:
		return heap.NilWord, fmt.Errorf("core: unset child")
	}
}

// ValueOf decodes an EP value back into an s-expression (testing and
// I/O). It does not disturb reference counts.
func (m *Machine) ValueOf(v Value) (sexpr.Value, error) {
	switch v.Kind {
	case VNil:
		return nil, nil
	case VAtom:
		return m.heap.Atoms().Value(v.Atom)
	case VHeap:
		return m.heap.Decode(v.Addr)
	case VList:
		if !m.lpt.valid(v.ID) {
			return nil, fmt.Errorf("core: stale identifier %d", v.ID)
		}
		e := m.lpt.get(v.ID)
		if e.hasAddr {
			return m.heap.Decode(e.addr)
		}
		car, err := m.childValueOf(e.car)
		if err != nil {
			return nil, err
		}
		cdr, err := m.childValueOf(e.cdr)
		if err != nil {
			return nil, err
		}
		return sexpr.Cons(car, cdr), nil
	}
	return nil, fmt.Errorf("core: bad value kind %d", v.Kind)
}

func (m *Machine) childValueOf(c child) (sexpr.Value, error) {
	switch c.kind {
	case childNil:
		return nil, nil
	case childAtom:
		return m.heap.Atoms().Value(c.atom())
	case childEntry:
		return m.ValueOf(Value{Kind: VList, ID: c.id})
	default:
		return nil, fmt.Errorf("core: unset child")
	}
}
