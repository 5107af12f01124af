// Streaming ingest: replay an SMRS upload while it is still arriving.
//
// StreamRun scans the upload block by block (trace.StreamScanner with
// raw-byte retention) and cuts a shard every shardBlocks blocks. Each
// shard is dispatched the moment its byte range has been staged — an
// in-process zero-copy view over the refs decoded so far, plus a lazy
// wire payload sliced straight out of the recorded upload bytes — so
// time-to-first-shard is one shard's worth of upload, not the whole
// stream's. Shard statistics merge in cut order, which makes the
// merged result identical to a staged run of the same plan.
package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// StreamRunResult is the outcome of one streaming ingest run, with the
// latency split the smoke test asserts on and smallbench reports:
// FirstShardNs strictly precedes StagedNs whenever the stream spans
// more than one shard, because dispatch does not wait for staging to
// finish.
type StreamRunResult struct {
	Stats        *sim.ShardStats
	Refs         int   // refs replayed
	Bytes        int64 // encoded bytes consumed
	Shards       int   // shards dispatched
	FirstShardNs int64 // start → first shard dispatched
	StagedNs     int64 // start → whole stream scanned
	TotalNs      int64 // start → merged result ready
}

// boundedReader caps the bytes a streaming upload may push: limit plus
// one probe byte (so an exactly-limit stream can confirm EOF), then
// reads fail and over marks the rejection.
type boundedReader struct {
	r         io.Reader
	remaining int64
	over      bool
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		b.over = true
		return 0, fmt.Errorf("stream exceeds size limit")
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	return n, err
}

// StreamRun replays an SMRS upload as a sharded job without waiting
// for the upload to finish: a shard covering shardBlocks event blocks
// is dispatched to runner as soon as its bytes have arrived. limit
// bounds the upload size (0 = unlimited); malformed, empty, over-limit,
// or over-sharded streams return BadSegmentError. The merged result is
// byte-identical to staging the same stream and replaying it under a
// plan with the same cuts.
func StreamRun(ctx context.Context, runner ShardRunner, r io.Reader, limit int64, shardBlocks int, params json.RawMessage) (*StreamRunResult, error) {
	shardBlocks = max(1, shardBlocks)
	start := time.Now()
	var bounded *boundedReader
	if limit > 0 {
		bounded = &boundedReader{r: r, remaining: limit + 1}
		r = bounded
	}
	overLimit := func() bool { return bounded != nil && bounded.over }

	sc, err := trace.NewStreamScanner(r, true)
	if err != nil {
		if overLimit() {
			return nil, &BadSegmentError{Err: fmt.Errorf("stream exceeds %d bytes", limit)}
		}
		return nil, &BadSegmentError{Err: err}
	}

	ctx, cancel := context.WithCancel(ctx)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		stats    []*sim.ShardStats // one slot per shard, filled by workers
	)
	defer func() {
		cancel()
		wg.Wait()
	}()
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	sem := make(chan struct{}, min(max(1, runtime.GOMAXPROCS(0)), MaxShards))
	res := &StreamRunResult{}
	b0, lo := 0, 0 // first block / ref of the shard being accumulated

	// dispatch launches the shard covering blocks [b0,b1) = refs [lo,hi).
	dispatch := func(b1, hi int) error {
		idx := res.Shards
		if idx >= MaxShards {
			return &BadSegmentError{Err: fmt.Errorf("stream needs more than %d shards; raise shard_blocks", MaxShards)}
		}
		view, err := trace.SubStream(sc.Stream(), lo, hi)
		if err != nil {
			return err
		}
		// The snapshot's entries and the raw prefix covering [b0,b1) are
		// immutable while scanning continues, so the payload closure can
		// run concurrently with later Scans.
		raw, ix, a, b := sc.Raw(), sc.IndexSnapshot(), b0, b1
		req := &ShardRequest{
			// The final shard count is unknown while the stream is still
			// arriving; Count carries the cap so index stays in range.
			Index: idx, Count: MaxShards, Params: params,
			Stream: view,
			encode: func() ([]byte, error) { return trace.AppendSlicePayload(nil, raw, &ix, a, b) },
		}
		mu.Lock()
		stats = append(stats, nil)
		mu.Unlock()
		res.Shards++
		if res.FirstShardNs == 0 {
			res.FirstShardNs = time.Since(start).Nanoseconds()
		}
		b0, lo = b1, hi
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
			st, err := runner.RunShard(ctx, req)
			if err != nil {
				fail(fmt.Errorf("ingest: shard %d: %w", idx, err))
				return
			}
			mu.Lock()
			stats[idx] = st
			mu.Unlock()
		}()
		return nil
	}

	for {
		// A cancelled request stops the scan between blocks; in-flight
		// shard goroutines see the same cancellation through ctx.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, err := sc.Scan()
		if err == io.EOF {
			break
		}
		if err != nil {
			if overLimit() {
				return nil, &BadSegmentError{Err: fmt.Errorf("stream exceeds %d bytes", limit)}
			}
			return nil, &BadSegmentError{Err: err}
		}
		if sc.Blocks()-b0 >= shardBlocks {
			if err := dispatch(sc.Blocks(), len(sc.Stream().Refs)); err != nil {
				return nil, err
			}
		}
		if failed() {
			break
		}
	}
	res.StagedNs = time.Since(start).Nanoseconds()
	res.Refs = len(sc.Stream().Refs)
	res.Bytes = sc.Offset()
	if res.Refs == 0 {
		return nil, &BadSegmentError{Err: fmt.Errorf("stream has no events")}
	}
	if lo < res.Refs && !failed() {
		if err := dispatch(sc.Blocks(), res.Refs); err != nil {
			return nil, err
		}
	}
	wg.Wait()
	mu.Lock()
	err = firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	merged := &sim.ShardStats{}
	for _, st := range stats {
		merged.Merge(st)
	}
	res.Stats = merged
	res.TotalNs = time.Since(start).Nanoseconds()
	return res, nil
}
