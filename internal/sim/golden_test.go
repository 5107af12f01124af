package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/core"
	"repro/internal/heap"
)

// goldenRunsHash pins the JSON of every run in goldenGrid, over all five
// benchprogs at scale 1. A change to the simulator that alters any
// counter, any address-dependent decision or any error message changes
// it. Update it only for a change that is meant to alter results, and
// say so where the change is recorded.
const goldenRunsHash = "96bbacca53ca86ae532e0e7d368f5f41f9030640ead8c4eceeb10bfebebfa877"

var goldenTiming = core.DefaultTiming()

// goldenGrid covers the simulator's distinct paths: the plain replay,
// heaps small enough to run out (ErrNoSpace on a read-in list or a
// compression merge), both compression policies, recursive decrement
// with split stack counts, the free-queue discipline, the cache and
// timing models, read-in-heavy replays and overflow mode.
var goldenGrid = []struct {
	name string
	p    Params
}{
	{"plain", Params{TableSize: 256, Seed: 1}},
	{"tiny-heap-64", Params{TableSize: 64, HeapCells: 64, Seed: 2}},
	{"tiny-heap-600", Params{TableSize: 128, HeapCells: 600, Seed: 3}},
	{"compress-all", Params{TableSize: 96, Policy: core.CompressAll, Seed: 4}},
	{"recursive-split", Params{TableSize: 128, Decrement: core.RecursiveDecrement, SplitStackCounts: true, Seed: 5}},
	{"free-queue", Params{TableSize: 128, FreeList: core.FreeQueue, Seed: 6}},
	{"cache", Params{TableSize: 256, CacheEntries: 256, CacheLineSize: 4, Seed: 7}},
	{"timing", Params{TableSize: 512, Timing: &goldenTiming, Seed: 8}},
	{"read-heavy", Params{TableSize: 256, ReadProb: 0.5, BindProb: 0.1, Seed: 9}},
	{"overflow", Params{TableSize: 12, Seed: 10}},
}

// TestGoldenRuns replays the five benchprogs under goldenGrid and
// compares a hash of every result (or error) with goldenRunsHash.
func TestGoldenRuns(t *testing.T) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	exhausted := 0
	for _, b := range benchprogs.All() {
		st := stream(t, b.Name)
		for _, g := range goldenGrid {
			res, err := Run(st, g.p)
			rec := struct {
				Prog, Case string
				Result     *Result
				Error      string
			}{Prog: b.Name, Case: g.name, Result: res}
			if err != nil {
				rec.Error = err.Error()
				if !errors.Is(err, heap.ErrNoSpace) {
					t.Errorf("%s/%s: %v", b.Name, g.name, err)
				}
				exhausted++
			}
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if exhausted == 0 {
		t.Error("no run exhausted its heap; the grid no longer reaches ErrNoSpace")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRunsHash {
		t.Errorf("golden hash %s, want %s (%d runs out of heap)", got, goldenRunsHash, exhausted)
	}
}
