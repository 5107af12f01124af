package cluster

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/benchprogs"
	"repro/internal/dml"
	"repro/internal/lisp"
)

// dmlBenchSteps bounds one benchprog evaluation; editor, the deepest,
// stays well inside it.
const dmlBenchSteps = 200_000_000

// BenchmarkDMLEval evaluates each benchprog at scale 1 under
// distributed Multilisp over real RPC workers, through a gateway's own
// links at 1, 2 and 4 workers, beside the serial interpreter: the
// serial sub-benchmark's ns/op over a worker count's is the distributed
// speedup. Each eval runs on a fresh evaluator. combining_x is the
// decrements enqueued per weight-dec frame sent; it is absent when no
// frame was sent (slang and pearl spawn nothing).
func BenchmarkDMLEval(b *testing.B) {
	counts := []int{1, 2, 4}
	workers := make([]*testWorker, counts[len(counts)-1])
	for i := range workers {
		workers[i] = startWorker(b)
	}
	gateways := make(map[int]*Gateway, len(counts))
	for _, n := range counts {
		gateways[n] = startGateway(b, workers[:n])
	}
	ctx := context.Background()
	for _, bp := range benchprogs.All() {
		src := bp.Gen(1)
		b.Run(bp.Name, func(b *testing.B) {
			b.Run("serial", func(b *testing.B) {
				for range b.N {
					in := lisp.New(lisp.WithOutput(io.Discard), lisp.WithStepLimit(dmlBenchSteps))
					if _, err := in.Run(src); err != nil {
						b.Fatal(err)
					}
				}
			})
			for _, n := range counts {
				sp := gateways[n].dml.sp
				b.Run(fmt.Sprintf("%dw", n), func(b *testing.B) {
					before := sp.Stats()
					for range b.N {
						ev := dml.NewEvaluator(sp, io.Discard, lisp.WithStepLimit(dmlBenchSteps))
						_, err := ev.Run(ctx, src, true)
						ev.Close()
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					after := settle(b, sp)
					b.ReportMetric(float64(after.Spawns-before.Spawns)/float64(b.N), "spawns/op")
					if frames := after.Combining.Frames - before.Combining.Frames; frames > 0 {
						enqueued := after.Combining.Enqueued - before.Combining.Enqueued
						b.ReportMetric(float64(enqueued)/float64(frames), "combining_x")
					}
				})
			}
		})
	}
}

// settle flushes sp until every decrement has been sent and all weight
// is back on the workers, then returns the settled counters.
func settle(b *testing.B, sp *dml.Spawner) dml.SpawnerStats {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sp.Flush()
		st := sp.Stats()
		c := st.Combining
		if st.OutstandingWeight == 0 && c.EntriesSent+c.Combined+c.Dropped == c.Enqueued {
			if c.Dropped != 0 {
				b.Fatalf("%d decrement entries written off", c.Dropped)
			}
			return st
		}
		if time.Now().After(deadline) {
			b.Fatalf("decrements never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
