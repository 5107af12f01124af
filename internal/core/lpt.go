// Package core implements the SMALL architecture of Chapter 4: an
// Evaluation Processor (EP) and a List Processor (LP) joined by the List
// Processor Table (LPT), over a two-pointer heap managed by a heap
// controller that splits and merges list objects.
//
// The LPT is the heart of the design. Each entry virtualises one list
// object: the EP addresses lists by small LPT identifiers and never sees
// heap addresses. Entries cache the car/cdr decomposition of the objects
// they denote, so repeated accesses are satisfied without heap traffic,
// and fresh conses exist only as LPT endo-structure until compression
// writes them back. The table manages itself by reference counting with a
// free *stack* and lazy child decrement (§4.3.2.1), recovers space by
// compressing split children back into their parents under pseudo
// overflow (§4.3.2.3), breaks dead reference cycles with a mark/sweep
// pass under true overflow, and falls back to a degraded overflow mode
// when even that fails.
package core

import (
	"errors"

	"repro/internal/heap"
)

// EntryID identifies an LPT entry; 0 is reserved (no entry).
type EntryID int32

// childKind says what an entry's car or cdr field holds.
type childKind uint8

const (
	childUnset childKind = iota // not yet computed (entry must have addr)
	childNil
	childAtom
	childEntry
)

// child is the car or cdr field of an LPT entry, packed into 8 bytes:
// an entry identifier, or an atom word split into its tag and value.
type child struct {
	kind childKind
	tag  heap.Tag // the atom word's tag, when childAtom
	id   EntryID  // when childEntry; the atom word's value when childAtom
}

func atomChild(w heap.Word) child { return child{kind: childAtom, tag: w.Tag, id: EntryID(w.Val)} }

// atom returns the word of a childAtom field.
func (c child) atom() heap.Word { return heap.Word{Tag: c.tag, Val: int32(c.id)} }

// entry is one LPT row (Fig 4.2): identifier (the index), car, cdr,
// reference count, heap address, and mark bit. The free stack is threaded
// through freeLink, standing in for the thesis's reuse of the addr field
// (Fig 4.3).
type entry struct {
	car, cdr child
	ref      int32 // references: internal (car/cdr fields) + EP-held
	addr     heap.Word
	hasAddr  bool
	mark     bool
	inUse    bool
	stackBit bool // split-count mode: some EP stack reference exists
	freeLink EntryID
}

// DecrementPolicy selects how child reference counts are decremented when
// an entry is freed (§4.3.2.1 / Table 5.2).
type DecrementPolicy uint8

const (
	// LazyDecrement defers child decrements until the freed entry is
	// reallocated — the SMALL design choice, bounding free/alloc work.
	LazyDecrement DecrementPolicy = iota
	// RecursiveDecrement decrements children immediately when a count
	// reaches zero, cascading arbitrarily — the rejected alternative,
	// measured as RecRefops in Table 5.2.
	RecursiveDecrement
)

// LPTStats counts table activity in the terms of Tables 5.2 and 5.3.
type LPTStats struct {
	Refops          int64 // reference count arithmetic operations
	Gets            int64 // entry allocations
	Frees           int64 // entries whose count reached zero
	Hits            int64 // car/cdr satisfied from entry fields
	Misses          int64 // car/cdr requiring a heap split
	PseudoOverflow  int64 // compressions triggered
	TrueOverflow    int64 // cycle-recovery passes triggered
	CompressedPairs int64 // child pairs folded back into parents
	CyclesBroken    int64 // entries reclaimed by overflow mark/sweep
}

// ErrLPTFull is returned when the table is exhausted and neither
// compression nor cycle recovery can free an entry.
var ErrLPTFull = errors.New("core: LPT full (true overflow)")

// FreeDiscipline selects how freed LPT entries are remembered (§4.3.2.1:
// "free LPT entries are not remembered in a queue (first in first out)
// but on a stack (last in first out)").
type FreeDiscipline uint8

const (
	// FreeStack reuses the most recently freed entry first — the SMALL
	// choice, minimising the period during which lazily-retained children
	// occupy extra space.
	FreeStack FreeDiscipline = iota
	// FreeQueue reuses entries first-in-first-out — the rejected
	// alternative, kept for the ablation bench.
	FreeQueue
)

// lpt is the List Processor Table.
//
// Under the free-stack discipline the table grows on demand: entries
// holds the sentinel plus every identifier handed out so far, and the
// free stack holds freed entries only. An eagerly stacked table pops
// identifiers 1, 2, 3, ... in order, so its free stack is always the
// freed entries (most recent first) followed by the never-used ones in
// ascending order; takeFree reproduces that order by handing out the
// next never-used identifier once the stack is empty. The FIFO ablation
// keeps the eager table.
type lpt struct {
	entries  []entry
	capacity int     // usable identifiers are 1..capacity
	freeTop  EntryID // top of the free stack; 0 = empty
	// freeFIFO holds the free list under the FreeQueue discipline;
	// fifoHead indexes the next entry to reuse so dequeuing never
	// reslices storage away.
	freeFIFO   []EntryID
	fifoHead   int
	discipline FreeDiscipline
	inUse      int
	peak       int // high-water mark of inUse
	policy     DecrementPolicy
	stats      LPTStats
	// occupancySum/Samples integrate occupancy over allocations for the
	// average-occupancy measurements of Fig 5.3.
	occupancySum     int64
	occupancySamples int64
	// pendingHeapFrees queues heap objects awaiting reclamation by the
	// heap controller (§4.3.3.1: a queue of free requests serviced
	// "whenever convenient").
	pendingHeapFrees []heap.Word
}

// newLPT builds a table with the given number of entries. Index 0 is a
// sentinel; usable identifiers are 1..size.
func newLPT(size int, policy DecrementPolicy, disc FreeDiscipline) *lpt {
	t := &lpt{}
	t.reset(size, policy, disc)
	return t
}

// reset reinitialises the table for a fresh run, reusing the entry array
// and auxiliary slices. Only the entries used since the last reset are
// cleared. A reset table is behaviourally identical to newLPT(size,
// policy, disc).
func (t *lpt) reset(size int, policy DecrementPolicy, disc FreeDiscipline) {
	clear(t.entries)
	t.entries = append(t.entries[:0], entry{}) // the sentinel
	t.capacity = size
	t.freeTop = 0
	t.freeFIFO = t.freeFIFO[:0]
	t.fifoHead = 0
	t.discipline = disc
	t.policy = policy
	t.inUse = 0
	t.peak = 0
	t.stats = LPTStats{}
	t.occupancySum = 0
	t.occupancySamples = 0
	t.pendingHeapFrees = t.pendingHeapFrees[:0]
	if disc == FreeQueue {
		t.entries = append(t.entries, make([]entry, size)...)
		for i := size; i >= 1; i-- {
			t.putFree(EntryID(i))
		}
	}
}

// size returns the table's capacity in entries.
func (t *lpt) size() int { return t.capacity }

// get returns an entry that has been handed out at least once. Its
// pointer is valid only until the next allocation, which may grow the
// table.
func (t *lpt) get(id EntryID) *entry {
	return &t.entries[id]
}

// valid reports whether id names an in-use entry.
func (t *lpt) valid(id EntryID) bool {
	return id > 0 && int(id) < len(t.entries) && t.entries[id].inUse
}

// takeFree removes the next entry from the free structure, or 0.
func (t *lpt) takeFree() EntryID {
	if t.discipline == FreeQueue {
		if t.fifoHead >= len(t.freeFIFO) {
			return 0
		}
		id := t.freeFIFO[t.fifoHead]
		t.fifoHead++
		if t.fifoHead == len(t.freeFIFO) {
			t.freeFIFO = t.freeFIFO[:0]
			t.fifoHead = 0
		}
		return id
	}
	if id := t.freeTop; id != 0 {
		t.freeTop = t.entries[id].freeLink
		return id
	}
	if n := len(t.entries); n <= t.capacity {
		t.entries = heap.GrowWithin(t.entries, t.capacity+1)
		return EntryID(n)
	}
	return 0
}

// putFree records a freed entry for reuse.
func (t *lpt) putFree(id EntryID) {
	if t.discipline == FreeQueue {
		t.freeFIFO = append(t.freeFIFO, id)
		return
	}
	t.entries[id].freeLink = t.freeTop
	t.freeTop = id
}

// alloc pops the free stack. Under the lazy policy this is the moment the
// previous occupant's children are finally decremented (Fig 4.3).
func (t *lpt) alloc() (EntryID, error) {
	id := t.takeFree()
	if id == 0 {
		return 0, ErrLPTFull
	}
	e := &t.entries[id]
	if t.policy == LazyDecrement {
		// Decrement the stale children recorded when this entry was freed.
		car, cdr := e.car, e.cdr
		e.car, e.cdr = child{}, child{}
		t.decChild(car)
		t.decChild(cdr)
		// The pop above may have been invalidated if decChild freed
		// entries: they were pushed above us? No — they are pushed onto
		// freeTop which we already advanced past; order is preserved.
	}
	*e = entry{inUse: true}
	t.inUse++
	if t.inUse > t.peak {
		t.peak = t.inUse
	}
	t.stats.Gets++
	t.occupancySum += int64(t.inUse)
	t.occupancySamples++
	return id, nil
}

// incRef adds a reference to an entry.
func (t *lpt) incRef(id EntryID) {
	if id == 0 {
		return
	}
	t.entries[id].ref++
	t.stats.Refops++
}

// decRef removes a reference; at zero the entry is freed according to the
// decrement policy.
func (t *lpt) decRef(id EntryID) {
	if id == 0 || !t.entries[id].inUse {
		return
	}
	t.entries[id].ref--
	t.stats.Refops++
	if t.entries[id].ref <= 0 && !t.entries[id].stackBit {
		t.freeEntry(id)
	}
}

// decChild decrements whatever a child field references.
func (t *lpt) decChild(c child) {
	if c.kind == childEntry {
		t.decRef(c.id)
	}
}

// freeEntry pushes a zero-count entry onto the free stack. The heap
// object it owned (if any) is released via the pending free queue; under
// the lazy policy its child fields are retained for decrement at
// reallocation, under the recursive policy they are decremented now.
func (t *lpt) freeEntry(id EntryID) {
	e := &t.entries[id]
	if !e.inUse {
		return
	}
	e.inUse = false
	t.inUse--
	t.stats.Frees++
	if e.hasAddr {
		t.pendingHeapFrees = append(t.pendingHeapFrees, e.addr)
		e.hasAddr = false
	}
	if t.policy == RecursiveDecrement {
		car, cdr := e.car, e.cdr
		e.car, e.cdr = child{}, child{}
		t.decChild(car)
		t.decChild(cdr)
	}
	t.putFree(id)
}
