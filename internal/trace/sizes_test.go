package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/trace"
)

// TestEncodedSizes pins each benchprog's trace at scale 2, the
// experiments' default: its event count and its text, SMTB and SMRS
// encoded sizes. Generation and all three encoders are deterministic,
// so a change here is a change of format or of the generated traces. A
// deliberate format change bumps the version byte and updates these
// figures.
func TestEncodedSizes(t *testing.T) {
	want := map[string]struct{ events, text, smtb, smrs int }{
		"slang":  {2342, 114485, 24620, 23914},
		"plagen": {16935, 1315462, 159366, 156599},
		"lyra":   {76507, 4256178, 530607, 518633},
		"editor": {60693, 2945446, 474038, 466908},
		"pearl":  {991, 26753, 11557, 10251},
	}
	for _, b := range benchprogs.All() {
		w, ok := want[b.Name]
		if !ok {
			t.Fatalf("no pinned sizes for benchprog %s", b.Name)
		}
		tr, err := benchprogs.Trace(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		var text, smtb, smrs bytes.Buffer
		if err := trace.Write(&text, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary(&smtb, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteStream(&smrs, trace.Preprocess(tr)); err != nil {
			t.Fatal(err)
		}
		got := [4]int{len(tr.Events), text.Len(), smtb.Len(), smrs.Len()}
		if got != [4]int{w.events, w.text, w.smtb, w.smrs} {
			t.Errorf("%s: events, text, SMTB, SMRS bytes = %v, want %v", b.Name, got, w)
		}
	}
}
