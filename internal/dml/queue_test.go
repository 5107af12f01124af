package dml

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/cluster/wire"
)

// TestCombinerCountsOnlySentFrames: a frame counts in Frames and
// EntriesSent only when send succeeds; a failed frame's entries are
// written off in Dropped. The assertions compare the counters with what
// send actually saw, so they hold however the background flusher
// splits the decrements into frames.
func TestCombinerCountsOnlySentFrames(t *testing.T) {
	var (
		mu                  sync.Mutex
		okFrames, okEntries int64
		failedEntries       int64
	)
	c := NewCombiner(func(addr string, decs []wire.DecEntry) error {
		mu.Lock()
		defer mu.Unlock()
		if addr == "down" {
			failedEntries += int64(len(decs))
			return ErrWorkerDown
		}
		okFrames++
		okEntries += int64(len(decs))
		return nil
	})
	for id := int64(1); id <= 10; id++ {
		c.Enqueue("up", id, 4)
		c.Enqueue("up", id, 4) // combines unless a flush fell in between
		c.Enqueue("down", id, 4)
	}
	// Close waits for the flusher's in-flight frames, then flushes.
	c.Close()

	st := c.Stats()
	mu.Lock()
	defer mu.Unlock()
	if st.Frames != okFrames || st.EntriesSent != okEntries {
		t.Errorf("frames/entries = %d/%d, want the %d/%d that were sent", st.Frames, st.EntriesSent, okFrames, okEntries)
	}
	if st.Dropped != failedEntries || failedEntries != 10 {
		t.Errorf("dropped = %d, failed sends carried %d entries, want 10", st.Dropped, failedEntries)
	}
	if st.Enqueued != 30 || st.Enqueued != st.EntriesSent+st.Combined+st.Dropped {
		t.Errorf("ledger broken: %+v", st)
	}
}

// failingDecLink is a working link whose decrement frames never arrive.
type failingDecLink struct{ Link }

func (failingDecLink) SendDecs([]wire.DecEntry) error { return errors.New("connection reset") }

// TestSpawnerWritesOffFailedDecrements: when a decrement frame fails
// to send, the coordinator does not count it as sent, counts its entry
// as written off, and takes its weight out of the outstanding ledger;
// the weight stays stuck on the worker, which still holds the object.
func TestSpawnerWritesOffFailedDecrements(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	sp := NewSpawner(failingDecLink{NewLocalLink("w0", w)})
	defer sp.Close()

	prog := AnalyzeProgram(mustParseAll(t, "(defun idf (n) n)"))
	ctx := context.Background()
	r, err := sp.Spawn(ctx, prog.Token, prog.Defs, "(idf 7)", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(ctx, r); err != nil {
		t.Fatal(err)
	}
	sp.Release(r)
	sp.Close()

	st := sp.Stats()
	if st.Combining.Frames != 0 || st.Combining.EntriesSent != 0 {
		t.Errorf("failed frame counted as sent: %+v", st.Combining)
	}
	if st.Combining.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Combining.Dropped)
	}
	if st.OutstandingWeight != 0 {
		t.Errorf("outstanding weight = %d, want 0 after the write-off", st.OutstandingWeight)
	}
	if live := w.Table().Live(); live != 1 {
		t.Errorf("worker holds %d objects, want the 1 whose decrement was lost", live)
	}
}
