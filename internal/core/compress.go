package core

import "repro/internal/heap"

// CompressionPolicy selects the pseudo-overflow strategy (§5.2.3).
type CompressionPolicy uint8

const (
	// CompressOne frees the first compressible pair found and resumes.
	CompressOne CompressionPolicy = iota
	// CompressAll folds every compressible pair in the table.
	CompressAll
)

// compressible reports whether entry id can be folded: both its children
// must be mergeable into a fresh heap object, and any child entries must
// be referenced only from this entry (ref == 1) and be unexpanded
// (heap-backed leaves or pure atoms), per Fig 4.8.
func (m *Machine) compressible(id EntryID) bool {
	e := m.lpt.get(id)
	if !e.inUse || e.hasAddr {
		return false
	}
	return m.childMergeable(e.car) && m.childMergeable(e.cdr)
}

func (m *Machine) childMergeable(c child) bool {
	switch c.kind {
	case childNil, childAtom:
		return true
	case childEntry:
		ce := m.lpt.get(c.id)
		return ce.inUse && ce.ref == 1 && !ce.stackBit && ce.hasAddr
	default: // childUnset — entry should have had an addr; not mergeable
		return false
	}
}

// compressEntry folds entry id: its children are merged into one fresh
// heap object whose address the entry adopts; child entries are freed
// (Fig 4.8 frees two table entries per compression in the common case).
func (m *Machine) compressEntry(id EntryID) (freed int, err error) {
	e := m.lpt.get(id)
	carWord, freedCar, err := m.childToWord(e.car)
	if err != nil {
		return 0, err
	}
	cdrWord, freedCdr, err := m.childToWord(e.cdr)
	if err != nil {
		return 0, err
	}
	merged, err := m.heap.Merge(carWord, cdrWord)
	if err != nil {
		return 0, err
	}
	e.car, e.cdr = child{}, child{}
	e.addr = merged
	e.hasAddr = true
	m.lpt.stats.CompressedPairs++
	return freedCar + freedCdr, nil
}

// childToWord converts a mergeable child into its heap word, releasing
// the child's LPT entry when it has one. The child entry's heap object is
// adopted by the merge rather than queued for reclamation.
func (m *Machine) childToWord(c child) (heap.Word, int, error) {
	switch c.kind {
	case childNil:
		return heap.NilWord, 0, nil
	case childAtom:
		return c.atom(), 0, nil
	case childEntry:
		ce := m.lpt.get(c.id)
		w := ce.addr
		// Detach the address so freeing does not queue the object (it
		// lives on inside the merged parent), then drop the entry.
		ce.hasAddr = false
		ce.ref = 0
		m.lpt.stats.Refops++
		m.lpt.freeEntry(c.id)
		return w, 1, nil
	default:
		return heap.NilWord, 0, ErrLPTFull
	}
}

// compress handles pseudo overflow under the configured policy, returning
// the number of entries freed.
func (m *Machine) compress() (int, error) {
	m.lpt.stats.PseudoOverflow++
	freed := 0
	for id := EntryID(1); int(id) < len(m.lpt.entries); id++ {
		if !m.compressible(id) {
			continue
		}
		n, err := m.compressEntry(id)
		if err != nil {
			return freed, err
		}
		freed += n
		if m.policy == CompressOne && freed > 0 {
			return freed, nil
		}
	}
	return freed, nil
}

// recoverCycles is the true-overflow recovery of §4.3.2.3: entries
// referenced only by dead internal cycles are found by marking from the
// externally-referenced roots and sweeping the rest.
func (m *Machine) recoverCycles() int {
	t := m.lpt
	m.lpt.stats.TrueOverflow++
	// Internal reference counts: how many live car/cdr fields point at
	// each entry.
	internal := make([]int32, len(t.entries))
	for id := 1; id < len(t.entries); id++ {
		e := &t.entries[id]
		if !e.inUse {
			continue
		}
		if e.car.kind == childEntry {
			internal[e.car.id]++
		}
		if e.cdr.kind == childEntry {
			internal[e.cdr.id]++
		}
	}
	// Roots: entries with external references (EP-held or stack bit).
	var stack []EntryID
	for id := 1; id < len(t.entries); id++ {
		e := &t.entries[id]
		e.mark = false
		if e.inUse && (e.ref > internal[id] || e.stackBit) {
			stack = append(stack, EntryID(id))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e := t.get(id)
		if e.mark {
			continue
		}
		e.mark = true
		if e.car.kind == childEntry && !t.get(e.car.id).mark {
			stack = append(stack, e.car.id)
		}
		if e.cdr.kind == childEntry && !t.get(e.cdr.id).mark {
			stack = append(stack, e.cdr.id)
		}
	}
	// Sweep unmarked live entries: dead cycles.
	freed := 0
	for id := 1; id < len(t.entries); id++ {
		e := &t.entries[id]
		if e.inUse && !e.mark {
			e.ref = 0
			e.car, e.cdr = child{}, child{} // break links; peers also die
			t.freeEntry(EntryID(id))
			freed++
		}
	}
	t.stats.CyclesBroken += int64(freed)
	return freed
}

// allocEntry obtains an LPT entry, running the overflow ladder when the
// table is full: compression (pseudo overflow), then cycle recovery (true
// overflow), then ErrLPTFull, which the Machine translates into overflow
// mode.
func (m *Machine) allocEntry() (EntryID, error) {
	if id, err := m.lpt.alloc(); err == nil {
		return id, nil
	}
	if freed, err := m.compress(); err == nil && freed > 0 {
		return m.lpt.alloc()
	} else if err != nil {
		return 0, err
	}
	if m.recoverCycles() > 0 {
		return m.lpt.alloc()
	}
	return 0, ErrLPTFull
}
