package trace

import "testing"

// rangeTestStream builds a stream whose list values recur out of order
// and repeatedly.
func rangeTestStream(t *testing.T) *Stream {
	t.Helper()
	tr := &Trace{Name: "fixture", Events: []Event{
		{Kind: KindPrim, Op: "car", Args: []string{"(a b)"}, Result: "a"},
		{Kind: KindPrim, Op: "cdr", Args: []string{"(a b)"}, Result: "(b)"},
		{Kind: KindEnter, Op: "f", NArgs: 1},
		{Kind: KindPrim, Op: "cons", Args: []string{"x", "(b)"}, Result: "(x b)", Depth: 1},
		{Kind: KindPrim, Op: "car", Args: []string{"(x b)"}, Result: "x", Depth: 1},
		{Kind: KindExit, Op: "f"},
		{Kind: KindPrim, Op: "cdr", Args: []string{"(x b)"}, Result: "(b)"},
		{Kind: KindPrim, Op: "cons", Args: []string{"(b)", "(a b)"}, Result: "((b) a b)"},
		{Kind: KindPrim, Op: "car", Args: []string{"((b) a b)"}, Result: "(b)"},
	}}
	return Preprocess(tr)
}

func TestSubStreamBounds(t *testing.T) {
	st := rangeTestStream(t)
	n := len(st.Refs)
	for _, bad := range [][2]int{{-1, 2}, {0, n + 1}, {3, 2}, {n + 1, n + 2}} {
		if _, err := SubStream(st, bad[0], bad[1]); err == nil {
			t.Errorf("SubStream(%d,%d) of %d refs: want error, got nil", bad[0], bad[1], n)
		}
	}
	if sub, err := SubStream(st, 0, n); err != nil || len(sub.Refs) != n {
		t.Errorf("full-range view: %v refs, err %v", sub, err)
	}
	if sub, err := SubStream(st, 2, 2); err != nil || len(sub.Refs) != 0 {
		t.Errorf("empty view: got %v refs, err %v", sub, err)
	}
	// A view keeps the parent's absolute ids and texts.
	sub, err := SubStream(st, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sub.Refs {
		if want := st.Refs[2+i]; r.Result != want.Result || sub.Text(r.Result) != st.Text(want.Result) {
			t.Errorf("ref %d: result %d %q, want %d %q", i, r.Result, sub.Text(r.Result), want.Result, st.Text(want.Result))
		}
	}
}
