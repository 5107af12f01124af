package repro_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/trace"
)

// slangTraceAndForms materialises the scale-1 slang trace once and
// returns it with all three on-disk encodings, so the codec benches
// below measure pure encode/decode cost.
func slangTraceAndForms(b *testing.B) (*trace.Trace, []byte, []byte, []byte) {
	b.Helper()
	t, err := sharedRunner().Trace("slang")
	if err != nil {
		b.Fatal(err)
	}
	var text, bin, refs bytes.Buffer
	if err := trace.Write(&text, t); err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteBinary(&bin, t); err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteStream(&refs, trace.Preprocess(t)); err != nil {
		b.Fatal(err)
	}
	return t, text.Bytes(), bin.Bytes(), refs.Bytes()
}

// --- Trace codec benches ---

func BenchmarkTraceEncodeText(b *testing.B) {
	t, text, _, _ := slangTraceAndForms(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.Write(io.Discard, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceEncodeBinary(b *testing.B) {
	t, _, bin, _ := slangTraceAndForms(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteBinary(io.Discard, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceDecodeText(b *testing.B) {
	_, text, _, _ := slangTraceAndForms(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Read(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceDecodeBinary(b *testing.B) {
	_, _, bin, _ := slangTraceAndForms(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadBinary(bytes.NewReader(bin)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceDecodeStream(b *testing.B) {
	_, _, _, refs := slangTraceAndForms(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadStream(bytes.NewReader(refs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracePreprocess turns a materialised trace into its reference
// stream (§5.2.1): the step a built-in /v1/sim trace pays after
// generation, and a text or binary upload after decoding.
func BenchmarkTracePreprocess(b *testing.B) {
	for _, name := range []string{"slang", "plagen"} {
		b.Run(name, func(b *testing.B) {
			t, err := sharedRunner().Trace(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trace.Preprocess(t)
			}
		})
	}
}

// BenchmarkTraceDecodeStreaming walks every event through the streaming
// Decoder without materialising a Trace — the near-zero-alloc path.
func BenchmarkTraceDecodeStreaming(b *testing.B) {
	_, _, bin, _ := slangTraceAndForms(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	var ev trace.Event
	for i := 0; i < b.N; i++ {
		d, err := trace.NewDecoder(bytes.NewReader(bin))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if err := d.Next(&ev); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
