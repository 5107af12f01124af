package ingest

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/parsweep"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MaxShardPayload bounds one shard's encoded sub-stream — matched to
// the SMCR wire body limit so every shard fits an RPC frame.
const MaxShardPayload = 16 << 20

// ShardRequest is one unit of replay work handed to a ShardRunner.
//
// A request carries the shard in up to two forms. Stream, when set, is
// a zero-copy view into the staged segment (absolute identifiers, the
// parent's id-text table) — an in-process runner replays it directly,
// skipping the encode/decode round-trip entirely. ShardPayload
// materializes the wire form on demand: a byte-range sub-slice of the
// segment's indexed encoding with a patched header (no decode, no
// re-encode). Runners that ship shards over the network call
// ShardPayload; in-process runners prefer Stream.
type ShardRequest struct {
	Index   int             // shard position in plan order
	Count   int             // total shards in the job
	Params  json.RawMessage // opaque simulation parameters (the runner decodes them)
	Payload []byte          // the shard's sub-stream, SMRS-encoded (nil until materialized)
	Stream  *trace.Stream   // in-process zero-copy view of the shard (nil on the wire)

	encode func() ([]byte, error) // lazy payload builder set by Replay
}

// ShardPayload returns the shard's SMRS-encoded sub-stream, building
// and caching it on first use and enforcing MaxShardPayload.
func (req *ShardRequest) ShardPayload() ([]byte, error) {
	if req.Payload == nil {
		if req.encode == nil {
			return nil, fmt.Errorf("ingest: shard %d has no payload", req.Index)
		}
		p, err := req.encode()
		if err != nil {
			return nil, fmt.Errorf("ingest: encoding shard %d: %w", req.Index, err)
		}
		req.Payload = p
	}
	if len(req.Payload) > MaxShardPayload {
		return nil, fmt.Errorf("ingest: shard %d payload %d bytes exceeds cap %d", req.Index, len(req.Payload), MaxShardPayload)
	}
	return req.Payload, nil
}

// ShardRunner replays one shard on a fresh machine and returns its
// mergeable statistics. Implementations: smalld's in-process runner
// (standalone role) and the cluster gateway's RPC-spreading runner.
// Runners must be deterministic functions of the request — Replay's
// guarantee that distributed and local runs agree byte-for-byte rests
// on it.
type ShardRunner interface {
	RunShard(ctx context.Context, req *ShardRequest) (*sim.ShardStats, error)
}

// RunnerFunc adapts a function to the ShardRunner interface.
type RunnerFunc func(ctx context.Context, req *ShardRequest) (*sim.ShardStats, error)

// RunShard implements ShardRunner.
func (f RunnerFunc) RunShard(ctx context.Context, req *ShardRequest) (*sim.ShardStats, error) {
	return f(ctx, req)
}

// shardEncoder builds the lazy payload closure for one shard of seg: a
// byte-range slice of the segment's indexed encoding, header patched
// from index metadata. The encoder leaves the index out only past 2^28
// ids or 2^31 refs, far beyond what a MaxSegmentBytes upload decodes
// to, so a missing index is an error.
func shardEncoder(seg Segment, sh Shard) func() ([]byte, error) {
	return func() ([]byte, error) {
		enc, ix, err := seg.Encoded()
		if err != nil {
			return nil, err
		}
		if ix == nil {
			return nil, fmt.Errorf("ingest: segment %q has no shard index", seg.Stream.Name)
		}
		b0 := sh.Lo / trace.BlockEvents
		b1 := (sh.Hi + trace.BlockEvents - 1) / trace.BlockEvents
		return trace.AppendSlicePayload(nil, enc, ix, b0, b1)
	}
}

// Replay executes a shard plan map-reduce style: each shard becomes a
// ShardRequest — a zero-copy in-process view plus a lazily sliced wire
// payload — fanned out to the runner via the parallel sweep engine,
// and the per-shard statistics fold with sim.ShardStats.Merge in plan
// order. Every shard replays on a fresh machine with the same
// parameters, so the merged result is a pure function of (segments,
// plan, params) — independent of worker placement, scheduling, and
// parallelism — and sharded runs are byte-identical to local runs of
// the same plan.
func Replay(ctx context.Context, runner ShardRunner, segs []Segment, plan []Shard, params json.RawMessage) (*sim.ShardStats, error) {
	if err := ValidatePlanCounts(segmentCounts(segs), plan); err != nil {
		return nil, err
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("ingest: empty shard plan")
	}
	parts, err := parsweep.MapCtx(ctx, len(plan), func(i int) (*sim.ShardStats, error) {
		seg := segs[plan[i].Segment]
		view, err := trace.SubStream(seg.Stream, plan[i].Lo, plan[i].Hi)
		if err != nil {
			return nil, err
		}
		req := &ShardRequest{
			Index: i, Count: len(plan), Params: params,
			Stream: view,
			encode: shardEncoder(seg, plan[i]),
		}
		st, err := runner.RunShard(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("ingest: shard %d: %w", i, err)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	var total sim.ShardStats
	for _, p := range parts {
		total.Merge(p)
	}
	return &total, nil
}

// ReplayStreams adapts Replay to bare streams (no staged segments) —
// the benchmark and test entry point.
func ReplayStreams(ctx context.Context, runner ShardRunner, streams []*trace.Stream, plan []Shard, params json.RawMessage) (*sim.ShardStats, error) {
	segs := make([]Segment, len(streams))
	for i, st := range streams {
		segs[i] = NewSegment(st)
	}
	return Replay(ctx, runner, segs, plan, params)
}
