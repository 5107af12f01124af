package dml

import (
	"fmt"
	"sync"

	"repro/internal/cluster/wire"
)

// entry is one future object in a worker's table: its outstanding
// weight and the (eventual) evaluation result. done is closed exactly
// once, when the result fields become readable.
type entry struct {
	id     int64
	weight int64 // under Table.mu
	freed  bool  // under Table.mu

	done   chan struct{}
	value  string // under Table.mu; readable without mu after done closes
	output string // under Table.mu; readable without mu after done closes
	steps  int64  // under Table.mu; readable without mu after done closes
	conses int64  // under Table.mu; readable without mu after done closes
	errMsg string // under Table.mu; readable without mu after done closes
}

// Table is a worker's object table: the per-worker half of the
// distributed heap, keyed by ObjID. Total recorded weight per object
// starts at InitialWeight and only ever decreases (there is no
// increment message in the protocol); at zero the entry is freed.
type Table struct {
	mu   sync.Mutex
	next int64            // guarded by mu
	objs map[int64]*entry // guarded by mu
}

// NewTable returns an empty object table.
func NewTable() *Table {
	return &Table{objs: make(map[int64]*entry)}
}

// Register allocates a fresh object with the full initial weight and an
// unresolved result.
func (t *Table) Register() *entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &entry{id: t.next, weight: InitialWeight, done: make(chan struct{})}
	t.next++
	t.objs[e.id] = e
	return e
}

// lookup returns the live entry for id.
func (t *Table) lookup(id int64) (*entry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.objs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	return e, nil
}

// resolve publishes the evaluation result for e and wakes touchers. A
// result landing after the object was freed by decrements is discarded.
func (t *Table) resolve(e *entry, value, output string, steps, conses int64, errMsg string) {
	t.mu.Lock()
	if !e.freed {
		e.value, e.output, e.steps, e.conses, e.errMsg = value, output, steps, conses, errMsg
	}
	t.mu.Unlock()
	close(e.done)
}

// ApplyDec lands one decrement, freeing the object when its weight
// reaches zero. Over-decrementing (below zero) is a protocol violation
// reported as an error with the object left freed.
func (t *Table) ApplyDec(id, w int64) (freed bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.objs[id]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	e.weight -= w
	if e.weight > 0 {
		return false, nil
	}
	e.freed = true
	delete(t.objs, id)
	if e.weight < 0 {
		return true, fmt.Errorf("dml: object %d weight driven negative (%d)", id, e.weight)
	}
	return true, nil
}

// ApplyDecs lands a decrement frame atomically. Under one lock it checks
// every entry first: the object exists, and the entries for one object
// sum to at most its recorded weight. Then it applies all of them, or,
// when any check fails, none. It returns the number of objects freed.
func (t *Table) ApplyDecs(decs []wire.DecEntry) (freed int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := make(map[int64]int64, len(decs))
	for _, d := range decs {
		e, ok := t.objs[d.ObjID]
		if !ok {
			return 0, fmt.Errorf("%w: %d", ErrUnknownObject, d.ObjID)
		}
		sums[d.ObjID] += d.Weight
		if sums[d.ObjID] > e.weight {
			return 0, fmt.Errorf("dml: decrements of object %d sum to %d, above its weight %d", d.ObjID, sums[d.ObjID], e.weight)
		}
	}
	for id, w := range sums {
		e := t.objs[id]
		e.weight -= w
		if e.weight == 0 {
			e.freed = true
			delete(t.objs, id)
			freed++
		}
	}
	return freed, nil
}

// Live counts objects whose weight has not reached zero.
func (t *Table) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.objs)
}

// OutstandingWeight sums the recorded weight of every live object.
func (t *Table) OutstandingWeight() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, e := range t.objs {
		sum += e.weight
	}
	return sum
}
