package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchprogs"
)

func testRunner(t *testing.T) *Runner {
	t.Helper()
	return NewRunner(Config{Scale: 1, Seeds: 5})
}

// TestAllExperimentsRun executes every experiment at small scale and
// checks each produces a non-trivial report.
func TestAllExperimentsRun(t *testing.T) {
	r := testRunner(t)
	for _, e := range All() {
		rep, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if rep.ID != e.ID {
			t.Errorf("%s: report id %q", e.ID, rep.ID)
		}
		if rep.Title == "" || len(rep.Text) < 40 {
			t.Errorf("%s: report too thin: %q / %q", e.ID, rep.Title, rep.Text)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig5.1"); !ok {
		t.Error("fig5.1 should exist")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("nonsense should not exist")
	}
}

func TestRunnerCachesTraces(t *testing.T) {
	r := testRunner(t)
	a, err := r.Trace("slang")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Trace("slang")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("trace not cached")
	}
	sa, err := r.Stream("slang")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.Stream("slang")
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Error("stream not cached")
	}
}

// TestTraceHonoursRunnerContext: trace generation runs under the
// runner's context, so a cancelled runner gets the context's error
// instead of a trace generated to the end.
func TestTraceHonoursRunnerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunnerCtx(ctx, Config{Scale: 1, Seeds: 5})
	if _, err := r.Trace("slang"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Trace on a cancelled runner: err = %v, want context.Canceled", err)
	}
}

// TestDiskCache: a CacheDir-backed runner writes .btrace/.refs files on
// first use, a fresh runner loads them back, and the cached stream is
// identical to a regenerated one. Corrupt cache files are ignored, not
// fatal.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Scale: 1, Seeds: 5, CacheDir: dir}

	r1 := NewRunner(cfg)
	want, err := r1.Stream("slang")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "slang.s1.btrace")); err != nil {
		t.Errorf("trace cache file not written: %v", err)
	}
	refsPath := filepath.Join(dir, "slang.s1.refs")
	if _, err := os.Stat(refsPath); err != nil {
		t.Fatalf("stream cache file not written: %v", err)
	}

	r2 := NewRunner(cfg)
	got, err := r2.Stream("slang")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.MaxID != want.MaxID || !reflect.DeepEqual(got.Refs, want.Refs) {
		t.Error("cache-loaded stream differs from regenerated stream")
	}
	for id := 0; id <= want.MaxID; id++ {
		if got.Text(id) != want.Text(id) {
			t.Fatalf("id %d: cached text %q != %q", id, got.Text(id), want.Text(id))
		}
	}

	// A corrupt cache entry must fall back to regeneration.
	if err := os.WriteFile(refsPath, []byte("SMRS\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(cfg)
	got3, err := r3.Stream("slang")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3.Refs, want.Refs) {
		t.Error("regenerated-after-corruption stream differs")
	}
}

// BenchmarkStreamCache materialises all five reference streams at the
// default scale through a fresh Runner, with an empty disk cache (cold:
// generate, preprocess, write) and with a populated one (warm: read
// the .refs files back).
func BenchmarkStreamCache(b *testing.B) {
	const scale = 2
	load := func(b *testing.B, dir string) {
		r := NewRunner(Config{Scale: scale, Seeds: 5, CacheDir: dir})
		for _, bp := range benchprogs.All() {
			if _, err := r.Stream(bp.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		root := b.TempDir()
		for i := range b.N {
			load(b, filepath.Join(root, strconv.Itoa(i)))
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		load(b, dir)
		if refs, _ := filepath.Glob(filepath.Join(dir, "*.refs")); len(refs) != len(benchprogs.All()) {
			b.Fatalf("cache holds %d stream files, want %d", len(refs), len(benchprogs.All()))
		}
		b.ResetTimer()
		for range b.N {
			load(b, dir)
		}
	})
}

// TestFig51Shape asserts the knee property in the rendered data: every
// benchmark section contains a row where peak == size with overflow and a
// final row where peak < size without overflow.
func TestFig51Shape(t *testing.T) {
	r := testRunner(t)
	rep, err := Fig5_1(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "pseudo") && !strings.Contains(rep.Text, "true") {
		t.Error("expected overflow markers below the knee")
	}
	if !strings.Contains(rep.Text, "knee") {
		t.Error("expected knee annotations")
	}
}

// TestTable54Shape asserts the headline Table 5.4 relationship inside the
// regenerated data: LPT misses below cache misses on every row.
func TestTable54Shape(t *testing.T) {
	r := testRunner(t)
	rep, err := Table5_4(r)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(rep.Text, "\n")
	rows := 0
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) != 6 {
			continue
		}
		lptMiss, err1 := strconv.ParseInt(fields[2], 10, 64)
		cacheMiss, err2 := strconv.ParseInt(fields[4], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		if lptMiss >= cacheMiss {
			t.Errorf("row %q: LPT misses %d not < cache misses %d", ln, lptMiss, cacheMiss)
		}
	}
	if rows < 8 {
		t.Errorf("only %d data rows parsed", rows)
	}
}
