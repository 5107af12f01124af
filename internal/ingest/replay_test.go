package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchprogs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testRunner replays shards from their wire payload, decoding params as
// a sim.Params JSON document — the same work a worker node does, minus
// the wire. Materializing the payload exercises the indexed byte-range
// slicer.
func testRunner() RunnerFunc {
	return func(ctx context.Context, req *ShardRequest) (*sim.ShardStats, error) {
		var p sim.Params
		if len(req.Params) > 0 {
			if err := json.Unmarshal(req.Params, &p); err != nil {
				return nil, err
			}
		}
		payload, err := req.ShardPayload()
		if err != nil {
			return nil, err
		}
		st, err := trace.ReadStream(bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		r, err := sim.RunCtx(ctx, st, p)
		if err != nil {
			return nil, err
		}
		s := sim.ShardOf(r)
		return &s, nil
	}
}

// viewRunner replays shards from their in-process zero-copy view — the
// standalone daemon's fast path, no encode or decode at all.
func viewRunner() RunnerFunc {
	return func(ctx context.Context, req *ShardRequest) (*sim.ShardStats, error) {
		var p sim.Params
		if len(req.Params) > 0 {
			if err := json.Unmarshal(req.Params, &p); err != nil {
				return nil, err
			}
		}
		if req.Stream == nil {
			return nil, fmt.Errorf("shard %d has no in-process view", req.Index)
		}
		r, err := sim.RunCtx(ctx, req.Stream, p)
		if err != nil {
			return nil, err
		}
		s := sim.ShardOf(r)
		return &s, nil
	}
}

// runnerFlavors names the two shard consumption paths every replay
// property must hold for: the wire payload (indexed byte-range slice)
// and the in-process zero-copy view.
func runnerFlavors() []struct {
	name   string
	runner RunnerFunc
} {
	return []struct {
		name   string
		runner RunnerFunc
	}{
		{"payload", testRunner()},
		{"view", viewRunner()},
	}
}

// foldPlanLocally is the independent single-node reference: it replays
// the plan sequentially over in-memory views (no SMRS round trip, no
// parsweep), and folds in plan order. Replay's parallel, wire-encoded
// result must match it byte for byte.
func foldPlanLocally(t *testing.T, segs []*trace.Stream, plan []Shard, p sim.Params) *sim.ShardStats {
	t.Helper()
	var total sim.ShardStats
	for _, sh := range plan {
		sub, err := trace.SubStream(segs[sh.Segment], sh.Lo, sh.Hi)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.RunCtx(context.Background(), sub, p)
		if err != nil {
			t.Fatal(err)
		}
		s := sim.ShardOf(r)
		total.Merge(&s)
	}
	return &total
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedReplayMatchesSingleNode is the determinism property the
// whole ingest design rests on: for every benchmark trace and every
// tested shard count, the parallel sharded replay (with its SMRS
// encode/decode round trip per shard) produces merged statistics
// byte-identical to a sequential single-node replay of the same plan —
// and for one shard, identical to a plain unsharded sim.RunCtx run.
func TestShardedReplayMatchesSingleNode(t *testing.T) {
	params := sim.Params{TableSize: 256, Seed: 7}
	pj := mustJSON(t, params)

	for _, b := range benchprogs.All() {
		tr, err := benchprogs.Trace(b, 1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		st := trace.Preprocess(tr)
		segs := []*trace.Stream{st}

		full, err := sim.RunCtx(context.Background(), st, params)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fullStats := sim.ShardOf(full)

		for _, k := range []int{1, 2, 3, 7} {
			for _, fl := range runnerFlavors() {
				t.Run(fmt.Sprintf("%s/k=%d/%s", b.Name, k, fl.name), func(t *testing.T) {
					plan := PlanShards(segs, k)
					got, err := ReplayStreams(context.Background(), fl.runner, segs, plan, pj)
					if err != nil {
						t.Fatal(err)
					}
					want := foldPlanLocally(t, segs, plan, params)
					if gj, wj := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(gj, wj) {
						t.Errorf("distributed != single-node for the same plan:\n got %s\nwant %s", gj, wj)
					}
					if k == 1 {
						if gj, fj := mustJSON(t, got), mustJSON(t, &fullStats); !bytes.Equal(gj, fj) {
							t.Errorf("one-shard replay != plain run:\n got %s\nwant %s", gj, fj)
						}
					}
					prims := 0
					for _, r := range st.Refs {
						if r.Kind == trace.RefPrim {
							prims++
						}
					}
					if got.Events != prims {
						t.Errorf("merged Events = %d, want %d primitive events", got.Events, prims)
					}
				})
			}
		}
	}
}

// TestReplayMultiSegment covers the multi-upload path: several staged
// segments replayed as one job, again parallel == sequential.
func TestReplayMultiSegment(t *testing.T) {
	params := sim.Params{TableSize: 128, Seed: 3}
	pj := mustJSON(t, params)
	var segs []*trace.Stream
	for _, name := range []string{"slang", "lyra"} {
		b, ok := benchprogs.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		tr, err := benchprogs.Trace(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, trace.Preprocess(tr))
	}
	for _, k := range []int{1, 3, 7} {
		plan := PlanShards(segs, k)
		want := foldPlanLocally(t, segs, plan, params)
		for _, fl := range runnerFlavors() {
			got, err := ReplayStreams(context.Background(), fl.runner, segs, plan, pj)
			if err != nil {
				t.Fatalf("k=%d/%s: %v", k, fl.name, err)
			}
			if gj, wj := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(gj, wj) {
				t.Errorf("k=%d/%s: distributed != single-node:\n got %s\nwant %s", k, fl.name, gj, wj)
			}
		}
	}
}

// TestReplayRejectsBadPlans: Replay revalidates, so a corrupted plan
// cannot double-count or drop ranges.
func TestReplayRejectsBadPlans(t *testing.T) {
	b, _ := benchprogs.ByName("slang")
	tr, err := benchprogs.Trace(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Preprocess(tr)
	segs := []*trace.Stream{st}
	pj := mustJSON(t, sim.Params{})

	if _, err := ReplayStreams(context.Background(), testRunner(), segs, nil, pj); err == nil {
		t.Error("empty plan accepted")
	}
	overlap := []Shard{
		{Segment: 0, Lo: 0, Hi: len(st.Refs)},
		{Segment: 0, Lo: 0, Hi: len(st.Refs)},
	}
	if _, err := ReplayStreams(context.Background(), testRunner(), segs, overlap, pj); err == nil {
		t.Error("overlapping plan accepted")
	}
}

// TestReplayPreIndexUploads: uploads written before the SMTX footer
// existed stage, plan, and replay exactly like indexed ones — the
// segment falls back to a canonical (indexed) re-encode the first time
// a wire payload is needed, and the merged statistics are unchanged.
func TestReplayPreIndexUploads(t *testing.T) {
	params := sim.Params{TableSize: 256, Seed: 7}
	pj := mustJSON(t, params)
	b, _ := benchprogs.ByName("slang")
	tr, err := benchprogs.Trace(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Preprocess(tr)
	var old bytes.Buffer
	if err := trace.WriteStreamNoIndex(&old, st); err != nil {
		t.Fatal(err)
	}

	s := NewStaging(Limits{})
	if _, err := s.Push("tenant", bytes.NewReader(old.Bytes())); err != nil {
		t.Fatalf("pre-index upload rejected: %v", err)
	}
	segs, _, err := s.Snapshot("tenant")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		plan := PlanSegments(segs, k)
		want := foldPlanLocally(t, []*trace.Stream{st}, plan, params)
		for _, fl := range runnerFlavors() {
			got, err := Replay(context.Background(), fl.runner, segs, plan, pj)
			if err != nil {
				t.Fatalf("k=%d/%s: %v", k, fl.name, err)
			}
			if gj, wj := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(gj, wj) {
				t.Errorf("k=%d/%s: pre-index replay differs:\n got %s\nwant %s", k, fl.name, gj, wj)
			}
		}
	}
}

// TestShardPayloadNeedsIndex: a wire payload is always a byte-range
// slice of an indexed encoding, so a segment whose encoding carries no
// index fails its payload shards with an error instead of re-encoding
// them; the in-process view path does not need the index.
func TestShardPayloadNeedsIndex(t *testing.T) {
	pj := mustJSON(t, sim.Params{TableSize: 256})
	b, _ := benchprogs.ByName("slang")
	tr, err := benchprogs.Trace(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Preprocess(tr)
	var raw bytes.Buffer
	if err := trace.WriteStreamNoIndex(&raw, st); err != nil {
		t.Fatal(err)
	}
	segs := []Segment{{Stream: st, enc: &segmentEnc{data: raw.Bytes()}}}
	plan := PlanSegments(segs, 2)
	if _, err := Replay(context.Background(), testRunner(), segs, plan, pj); err == nil || !strings.Contains(err.Error(), "no shard index") {
		t.Errorf("payload replay of an unindexed segment: got %v, want a missing-index error", err)
	}
	if _, err := Replay(context.Background(), viewRunner(), segs, plan, pj); err != nil {
		t.Errorf("view replay: %v", err)
	}
}
