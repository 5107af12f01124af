// Command tracegen runs the benchmark suite on the bytecode VM and
// writes the list access trace files consumed by cmd/locality and
// cmd/smallsim.
//
//	tracegen -out traces/                  # all five benchmarks at scale 2
//	tracegen -bench lyra -scale 4 -out traces/
//	tracegen -format binary -out traces/   # compact .btrace files ("SMTB")
//	tracegen -format refs -out traces/     # preprocessed .refs streams ("SMRS")
//	tracegen -format refs -noindex ...     # omit the SMTX index footer
//
// Binary and refs files carry an SMTX index footer by default: a
// per-block byte offset table that lets readers seek, slice, and plan
// shards without decoding every event. -noindex writes the pre-index
// format for compatibility testing; all readers accept both.
//
// Each benchmark compiles to SMALL stack-machine bytecode and runs on
// internal/vm; its traces are byte-identical to the tree-walking
// interpreter's (asserted by the differential tests in internal/vm).
//
// Readers (smallsim, locality, smalld) sniff the leading magic bytes, so
// every format is accepted everywhere a trace file is; text remains the
// default for greppability. Per-benchmark encode stats (events, bytes,
// bytes/event) print on success; a failing benchmark is reported and
// skipped, and the exit status is non-zero if any benchmark failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/benchprogs"
	"repro/internal/trace"
)

// countingWriter tracks bytes written for the encode stats.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeOne traces one benchmark and encodes it in the requested format,
// closing (and on failure removing) the output file on every path.
func writeOne(dir string, b benchprogs.Benchmark, scale int, format string, noIndex bool) error {
	t, err := benchprogs.Trace(b, scale)
	if err != nil {
		return err
	}
	ext := ".trace"
	switch format {
	case "binary":
		ext = ".btrace"
	case "refs":
		ext = ".refs"
	}
	path := filepath.Join(dir, b.Name+ext)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := &countingWriter{w: f}
	switch {
	case format == "text":
		err = trace.Write(cw, t)
	case format == "binary" && noIndex:
		err = trace.WriteBinaryNoIndex(cw, t)
	case format == "binary":
		err = trace.WriteBinary(cw, t)
	case format == "refs" && noIndex:
		err = trace.WriteStreamNoIndex(cw, trace.Preprocess(t))
	case format == "refs":
		err = trace.WriteStream(cw, trace.Preprocess(t))
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return fmt.Errorf("closing %s: %w", path, err)
	}
	s := trace.Summarize(t)
	events := len(t.Events)
	perEvent := 0.0
	if events > 0 {
		perEvent = float64(cw.n) / float64(events)
	}
	fmt.Printf("%s: %d primitives, %d function calls, max depth %d -> %s (%s: %d events, %d bytes, %.1f B/event)\n",
		b.Name, s.Primitives, s.Functions, s.MaxDepth, path, format, events, cw.n, perEvent)
	return nil
}

func main() {
	out := flag.String("out", ".", "output directory")
	bench := flag.String("bench", "", "benchmark name (default: all)")
	scale := flag.Int("scale", 2, "workload scale")
	format := flag.String("format", "text", `output format: "text", "binary" (compact varint), or "refs" (preprocessed stream)`)
	noIndex := flag.Bool("noindex", false, `omit the SMTX index footer on binary/refs output (pre-index compatible files)`)
	flag.Parse()

	switch *format {
	case "text", "binary", "refs":
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown format %q (want text, binary, or refs)\n", *format)
		os.Exit(2)
	}
	var list []benchprogs.Benchmark
	if *bench == "" {
		list = benchprogs.All()
	} else {
		b, ok := benchprogs.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "tracegen: unknown benchmark %q\n", *bench)
			os.Exit(2)
		}
		list = []benchprogs.Benchmark{b}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	exit := 0
	for _, b := range list {
		if err := writeOne(*out, b, *scale, *format, *noIndex); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %s: %v\n", b.Name, err)
			exit = 1
		}
	}
	os.Exit(exit)
}
