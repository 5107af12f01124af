package dml

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/wire"
)

const spinDefs = "(defun spin (n) (while (lessp 0 n) (setq n (- n 1))))"

func spinProg(t *testing.T) *Program {
	t.Helper()
	return AnalyzeProgram(mustParseAll(t, spinDefs))
}

// TestWorkerHostileInputs: malformed spawns, unknown tokens, unknown
// objects, and out-of-range decrements all fail typed and synchronous.
func TestWorkerHostileInputs(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	defer w.Drain(context.Background())
	prog := spinProg(t)

	if _, err := w.Spawn(SpawnRequest{Prog: "", Expr: "(spin 1)"}); err == nil {
		t.Error("empty program token accepted")
	}
	if _, err := w.Spawn(SpawnRequest{Prog: strings.Repeat("p", wire.MaxProgLen+1), Expr: "(spin 1)"}); err == nil {
		t.Error("oversized program token accepted")
	}
	if _, err := w.Spawn(SpawnRequest{Prog: "p-none", Expr: "(spin 1)"}); !errors.Is(err, ErrUnknownProg) {
		t.Errorf("unknown prog: got %v, want ErrUnknownProg", err)
	}
	if _, err := w.Spawn(SpawnRequest{Prog: prog.Token, Flags: wire.SpawnInstall,
		Defs: prog.Defs, Expr: "(spin"}); err == nil {
		t.Error("unparseable expr accepted")
	}
	if _, err := w.Spawn(SpawnRequest{Prog: prog.Token, Flags: wire.SpawnInstall,
		Defs: "(defun", Expr: "(spin 1)"}); err == nil {
		t.Error("unparseable defs accepted")
	}
	if _, err := w.Touch(context.Background(), 12345); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object touch: got %v, want ErrUnknownObject", err)
	}
	if _, err := w.ApplyDecs(nil); err == nil {
		t.Error("empty dec batch accepted")
	}
	if _, err := w.ApplyDecs([]wire.DecEntry{{ObjID: -1, Weight: 1}}); err == nil {
		t.Error("negative object id accepted")
	}
	if _, err := w.ApplyDecs([]wire.DecEntry{{ObjID: 1, Weight: wire.MaxRefWeight + 1}}); err == nil {
		t.Error("oversized weight accepted")
	}
	if _, err := w.ApplyDecs([]wire.DecEntry{{ObjID: 999, Weight: 1}}); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object dec: got %v, want ErrUnknownObject", err)
	}
}

// TestWorkerSpawnTouchDec walks the normal lifecycle: spawn resolves,
// touch returns the value, a full-weight decrement frees the object.
func TestWorkerSpawnTouchDec(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	defer w.Drain(context.Background())
	prog := AnalyzeProgram(mustParseAll(t, "(defun dbl (n) (+ n n))"))
	rep, err := w.Spawn(SpawnRequest{Prog: prog.Token, Flags: wire.SpawnInstall,
		Defs: prog.Defs, Expr: "(dbl x)", Binds: "((x . 21))"})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if rep.Weight != InitialWeight {
		t.Errorf("weight = %d, want %d", rep.Weight, InitialWeight)
	}
	tr, err := w.Touch(context.Background(), rep.ObjID)
	if err != nil {
		t.Fatalf("touch: %v", err)
	}
	if tr.Error != "" || tr.Value != "42" {
		t.Errorf("touch reply = %+v, want value 42", tr)
	}
	// Second spawn of the same token needs no defs.
	if _, err := w.Spawn(SpawnRequest{Prog: prog.Token, Expr: "(dbl 1)"}); err != nil {
		t.Errorf("cached-prog spawn: %v", err)
	}
	dr, err := w.ApplyDecs([]wire.DecEntry{{ObjID: rep.ObjID, Weight: InitialWeight}})
	if err != nil {
		t.Fatalf("dec: %v", err)
	}
	if dr.Freed != 1 {
		t.Errorf("freed = %d, want 1", dr.Freed)
	}
	if _, err := w.Touch(context.Background(), rep.ObjID); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("touch of freed object: got %v, want ErrUnknownObject", err)
	}
}

// TestApplyDecsAtomic: a decrement frame with a bad entry is rejected
// whole. A three-entry frame whose second entry names an unknown object,
// or takes more weight than its object holds, leaves all three objects'
// weights unchanged; entries for one object are checked by their sum.
func TestApplyDecsAtomic(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	defer w.Drain(context.Background())
	var ids [3]int64
	for i := range ids {
		ids[i] = w.Table().Register().id
	}
	weights := func() [3]int64 {
		tb := w.Table()
		tb.mu.Lock()
		defer tb.mu.Unlock()
		var out [3]int64
		for i, id := range ids {
			if e, ok := tb.objs[id]; ok {
				out[i] = e.weight
			}
		}
		return out
	}
	// Leave the middle object a weight of 1.
	if _, err := w.ApplyDecs([]wire.DecEntry{{ObjID: ids[1], Weight: InitialWeight - 1}}); err != nil {
		t.Fatal(err)
	}
	want := [3]int64{InitialWeight, 1, InitialWeight}
	if got := weights(); got != want {
		t.Fatalf("weights = %v, want %v", got, want)
	}

	for _, c := range []struct {
		name string
		decs []wire.DecEntry
	}{
		{"unknown object", []wire.DecEntry{{ObjID: ids[0], Weight: 1}, {ObjID: 999, Weight: 1}, {ObjID: ids[2], Weight: 1}}},
		{"over-decrement", []wire.DecEntry{{ObjID: ids[0], Weight: 1}, {ObjID: ids[1], Weight: 2}, {ObjID: ids[2], Weight: 1}}},
		{"summed over-decrement", []wire.DecEntry{{ObjID: ids[1], Weight: 1}, {ObjID: ids[1], Weight: 1}, {ObjID: ids[2], Weight: 1}}},
	} {
		if _, err := w.ApplyDecs(c.decs); err == nil {
			t.Errorf("%s: frame accepted", c.name)
		}
		if got := weights(); got != want {
			t.Errorf("%s: weights = %v after a rejected frame, want %v", c.name, got, want)
		}
	}
	if got := w.Stats().DecsApplied; got != 1 {
		t.Errorf("decs applied = %d, want 1 (rejected frames apply nothing)", got)
	}

	// A good frame lands every entry.
	dr, err := w.ApplyDecs([]wire.DecEntry{{ObjID: ids[0], Weight: 1}, {ObjID: ids[1], Weight: 1}, {ObjID: ids[2], Weight: InitialWeight}})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Applied != 3 || dr.Freed != 2 {
		t.Errorf("reply = %+v, want 3 applied and 2 freed", dr)
	}
	if got, want := weights(), [3]int64{InitialWeight - 1, 0, 0}; got != want {
		t.Errorf("weights = %v, want %v", got, want)
	}
}

// TestWorkerBacklogAndCancel: a full evaluation backlog rejects typed,
// and a touch blocked on a slow future honours its context.
func TestWorkerBacklogAndCancel(t *testing.T) {
	w := NewWorker(WorkerConfig{Parallel: 1, Backlog: 2})
	prog := spinProg(t)
	var admitted []int64
	var backlogged bool
	for i := 0; i < 6; i++ {
		rep, err := w.Spawn(SpawnRequest{Prog: prog.Token, Flags: wire.SpawnInstall,
			Defs: prog.Defs, Expr: "(spin 500000)"})
		if err == nil {
			admitted = append(admitted, rep.ObjID)
		} else if errors.Is(err, ErrSpawnBacklog) {
			backlogged = true
		} else {
			t.Fatalf("spawn %d: unexpected error %v", i, err)
		}
	}
	if !backlogged {
		t.Error("no spawn was rejected with ErrSpawnBacklog")
	}
	if len(admitted) == 0 {
		t.Fatal("no spawn admitted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	last := admitted[len(admitted)-1]
	if _, err := w.Touch(ctx, last); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked touch: got %v, want DeadlineExceeded", err)
	}
	drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	w.Drain(drainCtx)
	if st := w.Stats(); st.SpawnRejected == 0 {
		t.Error("SpawnRejected counter stayed zero")
	}
	// After drain, admission is closed.
	if _, err := w.Spawn(SpawnRequest{Prog: prog.Token, Expr: "(spin 1)"}); !errors.Is(err, ErrSpawnBacklog) {
		t.Errorf("post-drain spawn: got %v, want ErrSpawnBacklog", err)
	}
}
