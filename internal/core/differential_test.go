package core

import (
	"math/rand"
	"testing"

	"repro/internal/sexpr"
)

// TestDifferentialAgainstSexpr drives random operation sequences through a
// SMALL machine and, in lockstep, through plain s-expression semantics.
// After every operation the machine's decoded view of every live handle
// must equal the reference value. This exercises split, hit, cons
// endo-structure, rplac field maintenance, compression under pressure and
// lazy reclamation together, against an oracle.
func TestDifferentialAgainstSexpr(t *testing.T) {
	type pair struct {
		mv  Value       // machine value
		ref sexpr.Value // reference value (aliased, so rplac mutations show)
	}
	symbols := []sexpr.Value{
		sexpr.Symbol("a"), sexpr.Symbol("b"), sexpr.Symbol("c"), sexpr.Int(7),
	}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Small tables force compression and overflow paths on some seeds.
		tableSize := []int{16, 48, 256}[r.Intn(3)]
		m := NewMachine(Config{LPTSize: tableSize, Policy: CompressionPolicy(r.Intn(2))})
		var live []pair

		randomSexpr := func(depth int) sexpr.Value {
			var gen func(d int) sexpr.Value
			gen = func(d int) sexpr.Value {
				if d <= 0 || r.Intn(3) == 0 {
					return symbols[r.Intn(len(symbols))]
				}
				n := 1 + r.Intn(3)
				items := make([]sexpr.Value, n)
				for i := range items {
					items[i] = gen(d - 1)
				}
				return sexpr.List(items...)
			}
			return gen(depth)
		}

		check := func(op string, step int) {
			for i, p := range live {
				got, err := m.ValueOf(p.mv)
				if err != nil {
					t.Fatalf("seed %d step %d after %s: ValueOf(live[%d]): %v",
						seed, step, op, i, err)
				}
				if !sexpr.Equal(got, p.ref) {
					t.Fatalf("seed %d step %d after %s: live[%d] = %s, want %s",
						seed, step, op, i, sexpr.String(got), sexpr.String(p.ref))
				}
			}
		}

		pick := func() pair { return live[r.Intn(len(live))] }

		for step := 0; step < 300; step++ {
			if m.OverflowMode() {
				// Overflow-mode heap aliasing is exercised elsewhere; the
				// oracle cannot track raw heap sharing faithfully.
				break
			}
			op := r.Intn(6)
			if len(live) == 0 {
				op = 0
			}
			switch op {
			case 0: // readlist
				sv := randomSexpr(3)
				mv, err := m.ReadList(sv, NilValue)
				if err != nil {
					t.Fatalf("seed %d step %d: ReadList: %v", seed, step, err)
				}
				// ReadList copies into the heap: mutations of the machine
				// value must not affect the source, so deep-copy the ref.
				live = append(live, pair{mv, sexpr.Copy(sv)})
				check("readlist", step)
			case 1: // car
				p := pick()
				if p.mv.Kind != VList {
					continue
				}
				mv, err := m.Car(p.mv)
				if err != nil {
					if m.OverflowMode() {
						break
					}
					t.Fatalf("seed %d step %d: Car: %v", seed, step, err)
				}
				rv := sexpr.Car(p.ref)
				if mv.Kind == VList {
					live = append(live, pair{mv, rv})
				} else {
					// atoms: verify directly and drop
					got, err := m.ValueOf(mv)
					if err != nil || !sexpr.Equal(got, rv) {
						t.Fatalf("seed %d step %d: car atom = %s, want %s (%v)",
							seed, step, sexpr.String(got), sexpr.String(rv), err)
					}
				}
				check("car", step)
			case 2: // cdr
				p := pick()
				if p.mv.Kind != VList {
					continue
				}
				mv, err := m.Cdr(p.mv)
				if err != nil {
					if m.OverflowMode() {
						break
					}
					t.Fatalf("seed %d step %d: Cdr: %v", seed, step, err)
				}
				rv := sexpr.Cdr(p.ref)
				if mv.Kind == VList {
					live = append(live, pair{mv, rv})
				}
				check("cdr", step)
			case 3: // cons
				a, b := pick(), pick()
				mv, err := m.Cons(a.mv, b.mv)
				if err != nil {
					t.Fatalf("seed %d step %d: Cons: %v", seed, step, err)
				}
				if mv.Kind == VList {
					live = append(live, pair{mv, sexpr.Cons(a.ref, b.ref)})
				}
				check("cons", step)
			case 4: // rplaca / rplacd with an atom (keeps the oracle simple:
				// no aliased sublist graphs beyond what cons created)
				p := pick()
				if p.mv.Kind != VList {
					continue
				}
				atom := symbols[r.Intn(len(symbols))]
				av := Value{Kind: VAtom, Atom: m.Heap().Atoms().Intern(atom)}
				cell, ok := p.ref.(*sexpr.Cell)
				if !ok {
					continue
				}
				if r.Intn(2) == 0 {
					if err := m.Rplaca(p.mv, av); err != nil {
						if m.OverflowMode() {
							break
						}
						t.Fatalf("seed %d step %d: Rplaca: %v", seed, step, err)
					}
					cell.Car = atom
				} else {
					if err := m.Rplacd(p.mv, av); err != nil {
						if m.OverflowMode() {
							break
						}
						t.Fatalf("seed %d step %d: Rplacd: %v", seed, step, err)
					}
					cell.Cdr = atom
				}
				check("rplac", step)
			case 5: // release one handle
				i := r.Intn(len(live))
				m.Release(live[i].mv)
				live = append(live[:i], live[i+1:]...)
				check("release", step)
			}
		}
	}
}

// TestDifferentialSharingThroughMachine verifies aliasing semantics: a
// rplaca through one handle is visible through another handle that shares
// the same cell, exactly as with raw cells.
func TestDifferentialSharingThroughMachine(t *testing.T) {
	m := NewMachine(Config{LPTSize: 64})
	l := readList(t, m, "((x) tail)")
	sub, err := m.Car(l) // the (x) sublist, shared with l
	if err != nil {
		t.Fatal(err)
	}
	z := Value{Kind: VAtom, Atom: m.Heap().Atoms().Intern(sexpr.Symbol("z"))}
	if err := m.Rplaca(sub, z); err != nil {
		t.Fatal(err)
	}
	if got := valueStr(t, m, l); got != "((z) tail)" {
		t.Errorf("mutation through shared handle invisible: %s", got)
	}
	// cons sharing: both conses see the same mutated sublist.
	c1, err := m.Cons(sub, NilValue)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Cons(sub, c1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Rplaca(sub, Value{Kind: VAtom, Atom: m.Heap().Atoms().Intern(sexpr.Symbol("q"))}); err != nil {
		t.Fatal(err)
	}
	if got := valueStr(t, m, c2); got != "((q) (q))" {
		t.Errorf("cons sharing broken: %s", got)
	}
}

// TestRefcountAudit checks the bookkeeping invariant after a workload:
// every in-use entry's reference count equals the number of live internal
// (car/cdr field) references plus the EP holds the test still owns.
func TestRefcountAudit(t *testing.T) {
	m := NewMachine(Config{LPTSize: 128})
	r := rand.New(rand.NewSource(99))
	var held []Value
	for step := 0; step < 400; step++ {
		switch r.Intn(5) {
		case 0, 1:
			v := readList(t, m, "(a (b) c)")
			held = append(held, v)
		case 2:
			if len(held) >= 2 {
				v, err := m.Cons(held[r.Intn(len(held))], held[r.Intn(len(held))])
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, v)
			}
		case 3:
			if len(held) > 0 {
				v, err := m.Cdr(held[r.Intn(len(held))])
				if err != nil {
					t.Fatal(err)
				}
				if v.Kind == VList {
					held = append(held, v)
				}
			}
		case 4:
			if len(held) > 0 {
				i := r.Intn(len(held))
				m.Release(held[i])
				held = append(held[:i], held[i+1:]...)
			}
		}
	}
	// Audit: internal references per entry.
	internal := make(map[EntryID]int32)
	for id := EntryID(1); int(id) < len(m.lpt.entries); id++ {
		if !m.lpt.valid(id) {
			continue
		}
		e := m.lpt.get(id)
		if e.car.kind == childEntry {
			internal[e.car.id]++
		}
		if e.cdr.kind == childEntry {
			internal[e.cdr.id]++
		}
	}
	eph := make(map[EntryID]int32)
	for _, v := range held {
		if v.Kind == VList {
			eph[v.ID]++
		}
	}
	for id := EntryID(1); int(id) < len(m.lpt.entries); id++ {
		if !m.lpt.valid(id) {
			continue
		}
		e := m.lpt.get(id)
		want := internal[id] + eph[id]
		// Lazy decrement: freed entries retain stale child references
		// until their slot is reused, so live counts may exceed the audit
		// by the number of stale references. Count those too.
		stale := int32(0)
		for sid := EntryID(1); int(sid) < len(m.lpt.entries); sid++ {
			se := m.lpt.get(sid)
			if se.inUse || (se.car.kind == 0 && se.cdr.kind == 0) {
				continue
			}
			if se.car.kind == childEntry && se.car.id == id {
				stale++
			}
			if se.cdr.kind == childEntry && se.cdr.id == id {
				stale++
			}
		}
		if e.ref != want+stale {
			t.Errorf("entry %d: ref=%d, want internal %d + EP %d + stale %d",
				id, e.ref, internal[id], eph[id], stale)
		}
	}
}
