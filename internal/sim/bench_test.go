package sim

import (
	"fmt"
	"testing"
)

// ingestStreams are the built-in streams smallbench's ingest workload
// replays through /v1/sim.
var ingestStreams = []struct {
	name  string
	scale int
}{
	{"pearl", 1}, {"pearl", 2}, {"slang", 1}, {"slang", 2}, {"plagen", 1},
}

// BenchmarkSimRun replays each ingest stream at the two table sizes the
// workload asks for.
func BenchmarkSimRun(b *testing.B) {
	for _, s := range ingestStreams {
		st := streamAt(b, s.name, s.scale)
		for _, table := range []int{256, 1024} {
			b.Run(fmt.Sprintf("%s-%d/table=%d", s.name, s.scale, table), func(b *testing.B) {
				p := Params{TableSize: table, Seed: 1}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(st, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// raceEnabled is set in a -race build (race_test.go).
var raceEnabled bool

// TestRunAllocsConstant bounds what one replay allocates once the pooled
// simulator is warm: the Result and nothing per read-in list. The
// read-heavy case reads in many times more lists than the plain one, so
// a per-object allocation fails it.
func TestRunAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops a share of Puts at random, so some runs rebuild the pooled simulator")
	}
	st := stream(t, "plagen")
	for _, p := range []Params{
		{TableSize: 1024, Seed: 1},
		{TableSize: 1024, Seed: 1, ReadProb: 0.5},
	} {
		var reads int64
		allocs := testing.AllocsPerRun(20, func() {
			res, err := Run(st, p)
			if err != nil {
				t.Fatal(err)
			}
			reads = res.Machine.ReadLists
		})
		if allocs > 4 {
			t.Errorf("ReadProb %v: %.0f allocs per run (%d lists read in), want at most 4", p.ReadProb, allocs, reads)
		}
	}
}
