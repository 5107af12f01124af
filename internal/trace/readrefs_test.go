package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/trace"
)

// viaReadAuto is the path ReadRefs replaces: ReadAuto, then Preprocess
// unless the input was already a reference stream.
func viaReadAuto(data []byte) (*trace.Stream, error) {
	tr, st, err := trace.ReadAuto(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if st == nil {
		st = trace.Preprocess(tr)
	}
	return st, nil
}

// sameAsReadAuto fails unless ReadRefs gives data the stream, or the
// error text, that ReadAuto and Preprocess give it.
func sameAsReadAuto(t *testing.T, what string, data []byte) {
	t.Helper()
	got, gerr := trace.ReadRefs(data)
	want, werr := viaReadAuto(data)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: ReadRefs error %v, ReadAuto+Preprocess error %v", what, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ReadRefs and ReadAuto+Preprocess give different streams", what)
	}
}

// benchprogEncodings encodes a benchprog's trace in every upload form:
// text, SMTB and SMRS, with and without the SMTX footer.
func benchprogEncodings(t testing.TB, b benchprogs.Benchmark, scale int) map[string][]byte {
	t.Helper()
	tr, err := benchprogs.Trace(b, scale)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Preprocess(tr)
	out := map[string][]byte{}
	for name, enc := range map[string]func(io.Writer) error{
		"text":         func(w io.Writer) error { return trace.Write(w, tr) },
		"smtb":         func(w io.Writer) error { return trace.WriteBinary(w, tr) },
		"smtb-noindex": func(w io.Writer) error { return trace.WriteBinaryNoIndex(w, tr) },
		"smrs":         func(w io.Writer) error { return trace.WriteStream(w, st) },
		"smrs-noindex": func(w io.Writer) error { return trace.WriteStreamNoIndex(w, st) },
	} {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestReadRefsMatchesReadAuto holds ReadRefs to ReadAuto followed by
// Preprocess on every benchprog at scales 1 and 2, in every format, and
// on truncations of each encoding, which must fail with the same text.
func TestReadRefsMatchesReadAuto(t *testing.T) {
	for _, b := range benchprogs.All() {
		for scale := 1; scale <= 2; scale++ {
			for form, data := range benchprogEncodings(t, b, scale) {
				what := b.Name + "/" + form
				sameAsReadAuto(t, what, data)
				for _, n := range []int{0, 3, 4, 5, 9, len(data) / 3, len(data) / 2, len(data) - 9, len(data) - 1} {
					sameAsReadAuto(t, what+" truncated", data[:n])
				}
				sameAsReadAuto(t, what+" with trailing garbage", append(append([]byte{}, data...), "garbage!"...))
			}
		}
	}
}

// smtbWithTable hand-encodes an un-indexed SMTB trace of one op whose
// string table is strs; each event is a car with the given result and
// argument indices.
func smtbWithTable(strs []string, events [][2]uint64) []byte {
	enc := append([]byte("SMTB\x01"), 1, 't')
	enc = append(enc, 1, 3, 'c', 'a', 'r')
	enc = binary.AppendUvarint(enc, uint64(len(strs)))
	for _, s := range strs {
		enc = binary.AppendUvarint(enc, uint64(len(s)))
		enc = append(enc, s...)
	}
	enc = binary.AppendUvarint(enc, uint64(len(events)))
	for range events {
		enc = append(enc, 1<<2) // a prim with one argument
	}
	for range events {
		enc = append(enc, 0) // depth
	}
	for range events {
		enc = append(enc, 0) // op index
	}
	for _, e := range events {
		enc = binary.AppendUvarint(enc, e[0])
		enc = binary.AppendUvarint(enc, e[1])
	}
	return enc
}

// TestReadRefsEqualTexts: two string-table entries with the same list
// text share one identifier, as Preprocess numbers texts, not entries.
func TestReadRefsEqualTexts(t *testing.T) {
	data := smtbWithTable([]string{"", "(a b)", "a", "(a b)"}, [][2]uint64{{2, 1}, {3, 1}, {2, 3}})
	sameAsReadAuto(t, "equal texts", data)
	st, err := trace.ReadRefs(data)
	if err != nil {
		t.Fatal(err)
	}
	r := st.Refs
	if st.MaxID != 1 || r[0].Args[0] != 1 || r[1].Result != 1 || r[2].Args[0] != 1 {
		t.Fatalf("equal texts got distinct identifiers: MaxID %d, refs %+v", st.MaxID, r)
	}
	if r[0].Chain || r[1].Chain || !r[2].Chain {
		t.Fatalf("chain flags %v %v %v, want false false true", r[0].Chain, r[1].Chain, r[2].Chain)
	}
}

// TestDecoderNextStrictAtEnd: a Decoder's Next makes the end-of-input
// checks ReadBinary makes — trailing bytes and every SMTX footer claim
// — and fails with the same text, once and for good.
func TestDecoderNextStrictAtEnd(t *testing.T) {
	b, _ := benchprogs.ByName("pearl")
	enc := benchprogEncodings(t, b, 1)
	indexed, plain := enc["smtb"], enc["smtb-noindex"]
	lying := append([]byte{}, indexed...)
	lying[len(plain)+5]++ // the footer's event count
	cases := map[string][]byte{
		"trailing garbage after the footer":  append(append([]byte{}, indexed...), "12345678"...),
		"trailing garbage, no footer":        append(append([]byte{}, plain...), "12345678"...),
		"a footer that misstates the events": lying,
		"a truncated footer":                 indexed[:len(indexed)-3],
	}
	for name, data := range cases {
		_, want := trace.ReadBinary(bytes.NewReader(data))
		if want == nil {
			t.Fatalf("%s: ReadBinary accepted it", name)
		}
		d, err := trace.NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var ev trace.Event
		for err == nil {
			err = d.Next(&ev)
		}
		if errors.Is(err, io.EOF) || err.Error() != want.Error() {
			t.Errorf("%s: Next ended with %v, want %v", name, err, want)
		}
		if again := d.Next(&ev); again == nil || again.Error() != err.Error() {
			t.Errorf("%s: Next after the end: %v, want %v again", name, again, err)
		}
	}
	for _, data := range [][]byte{indexed, plain} {
		d, err := trace.NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		var ev trace.Event
		for err = d.Next(&ev); err == nil; err = d.Next(&ev) {
			n++
		}
		if err != io.EOF || n != d.Events() {
			t.Errorf("valid trace: %d of %d events, then %v", n, d.Events(), err)
		}
	}
}

// FuzzReadRefs holds ReadRefs to ReadAuto followed by Preprocess on any
// bytes: deep-equal streams, or the same error text. Its saved corpus
// holds the saved FuzzReadBinary and FuzzReadStream inputs; the seeds
// below add prefixes of every benchprog's encodings at scale 1, up to
// 8 KB so that live fuzzing stays fast (TestReadRefsMatchesReadAuto
// covers the whole files), pearl's whole SMTB and SMRS encodings with
// trailing garbage, and a string table with two equal texts.
func FuzzReadRefs(f *testing.F) {
	for _, b := range benchprogs.All() {
		for form, data := range benchprogEncodings(f, b, 1) {
			for _, n := range []int{4, 5, 9, 100, 1000, 8000} {
				f.Add(data[:min(n, len(data))])
			}
			if b.Name == "pearl" && strings.HasPrefix(form, "sm") {
				f.Add(append(append([]byte{}, data...), 0xff))
			}
		}
	}
	f.Add(smtbWithTable([]string{"", "(a b)", "a", "(a b)"}, [][2]uint64{{2, 1}, {3, 1}, {2, 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsReadAuto(t, "input", data)
	})
}
