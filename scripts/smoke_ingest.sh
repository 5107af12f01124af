#!/bin/sh
# smoke_ingest.sh — end-to-end smoke test for the ingest layer.
#
# Builds the daemon and tracegen, renders two benchmark traces as SMTB
# files, then drives the full ingest contract over curl against both a
# standalone smalld and a gateway + two workers, each under a tight
# per-tenant quota: one trace pushed as text, as SMTB and as SMRS runs
# to byte-identical results, pushes are accepted until staging fills, an
# over-quota push gets 429 with Retry-After, a sharded run spread over
# the workers returns a response byte-identical to the standalone
# replay, a streaming SMRS upload dispatches its first shard before
# staging completes (and matches the cluster statistics), consuming the
# run clears the backpressure, and the merged results land in the
# gateway's disk cache and /metrics. Exits non-zero on the first
# failure.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
BIN="$TMP/smalld"
cleanup() {
    for p in "${SOLO:-}" "${W1:-}" "${W2:-}" "${GW:-}" "${FMT:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() { echo "smoke-ingest: FAIL: $*"; exit 1; }

go build -o "$BIN" ./cmd/smalld
go run ./cmd/tracegen -scale 1 -format binary -bench slang -out "$TMP" >/dev/null
go run ./cmd/tracegen -scale 1 -format binary -bench pearl -out "$TMP" >/dev/null
go run ./cmd/tracegen -scale 1 -format refs -bench lyra -out "$TMP" >/dev/null
go run ./cmd/tracegen -scale 1 -format text -bench pearl -out "$TMP" >/dev/null
go run ./cmd/tracegen -scale 1 -format refs -bench pearl -out "$TMP" >/dev/null
SLANG="$TMP/slang.btrace"
PEARL="$TMP/pearl.btrace"
LYRA="$TMP/lyra.refs"

# Quota fits both traces once, with no room for a repeat push.
QUOTA=$(( $(wc -c < "$SLANG") + $(wc -c < "$PEARL") + 16 ))

# wait_line LOG PREFIX PID -> the suffix of the first log line matching
# PREFIX, waiting for the process to print it.
wait_line() {
    _out=""
    for _ in $(seq 1 100); do
        _out=$(sed -n "s/^$2 //p" "$1" | head -n 1)
        [ -n "$_out" ] && { echo "$_out"; return 0; }
        kill -0 "$3" 2>/dev/null || { echo ""; return 1; }
        sleep 0.1
    done
    echo ""
    return 1
}

# Standalone daemon: the single-node reference.
"$BIN" -addr 127.0.0.1:0 -ingest-quota "$QUOTA" >"$TMP/solo.log" 2>&1 &
SOLO=$!
SOLO_ADDR=$(wait_line "$TMP/solo.log" "smalld: listening on" "$SOLO") || { cat "$TMP/solo.log"; fail "standalone startup"; }

# Two workers and a gateway staging ingest at the cluster edge.
"$BIN" -role worker -addr 127.0.0.1:0 -rpc-addr 127.0.0.1:0 -queue 8 -workers 2 >"$TMP/w1.log" 2>&1 &
W1=$!
"$BIN" -role worker -addr 127.0.0.1:0 -rpc-addr 127.0.0.1:0 -queue 8 -workers 2 >"$TMP/w2.log" 2>&1 &
W2=$!
RPC1=$(wait_line "$TMP/w1.log" "smalld: rpc listening on" "$W1") || { cat "$TMP/w1.log"; fail "worker 1 startup"; }
RPC2=$(wait_line "$TMP/w2.log" "smalld: rpc listening on" "$W2") || { cat "$TMP/w2.log"; fail "worker 2 startup"; }
"$BIN" -role gateway -addr 127.0.0.1:0 -peers "$RPC1,$RPC2" -retries 2 -health-interval 100ms \
    -ingest-quota "$QUOTA" -cachedir "$TMP/cache" >"$TMP/gw.log" 2>&1 &
GW=$!
GW_ADDR=$(wait_line "$TMP/gw.log" "smalld: listening on" "$GW") || { cat "$TMP/gw.log"; fail "gateway startup"; }
echo "smoke-ingest: standalone http://$SOLO_ADDR, gateway http://$GW_ADDR -> workers $RPC1, $RPC2 (quota $QUOTA bytes)"

# One trace in three formats must give one answer: pearl pushed as
# text, as SMTB and as SMRS to three tenants of a daemon whose quota
# fits the text form, each run with the same point, must return
# byte-identical results.
"$BIN" -addr 127.0.0.1:0 -ingest-quota $(( $(wc -c < "$TMP/pearl.trace") + 16 )) >"$TMP/fmt.log" 2>&1 &
FMT=$!
FMT_ADDR=$(wait_line "$TMP/fmt.log" "smalld: listening on" "$FMT") || { cat "$TMP/fmt.log"; fail "formats daemon startup"; }
for F in pearl.trace pearl.btrace pearl.refs; do
    CODE=$(curl -s -o "$TMP/push.json" -w '%{http_code}' --data-binary @"$TMP/$F" "http://$FMT_ADDR/v1/ingest/fmt-$F")
    [ "$CODE" = 202 ] || { cat "$TMP/push.json"; fail "push $F gave $CODE"; }
    curl -fsS -d '{"point":{"table_size":256,"seed":7},"shards":2}' "http://$FMT_ADDR/v1/ingest/fmt-$F/run" \
        >"$TMP/fmt-run-$F.json" || fail "run of $F"
    sed -n '/"result"/,$p' "$TMP/fmt-run-$F.json" >"$TMP/fmt-result-$F.json"
    grep -q '"lpt_hits"' "$TMP/fmt-result-$F.json" || fail "run of $F has no result: $(cat "$TMP/fmt-run-$F.json")"
done
for F in pearl.btrace pearl.refs; do
    cmp -s "$TMP/fmt-result-pearl.trace.json" "$TMP/fmt-result-$F.json" ||
        { diff "$TMP/fmt-result-pearl.trace.json" "$TMP/fmt-result-$F.json" || true; fail "$F runs differently from the text trace"; }
done
echo "smoke-ingest: pearl as text, SMTB and SMRS: one result"

# Stage both traces on both topologies.
for BASE in "http://$SOLO_ADDR" "http://$GW_ADDR"; do
    for F in "$SLANG" "$PEARL"; do
        CODE=$(curl -s -o "$TMP/push.json" -w '%{http_code}' \
            -H 'Content-Type: application/x-smtb' --data-binary @"$F" "$BASE/v1/ingest/t1")
        [ "$CODE" = 202 ] || { cat "$TMP/push.json"; fail "push $F to $BASE gave $CODE"; }
    done
done
grep -q '"refs"' "$TMP/push.json" || fail "push response has no segment info"

# Backpressure: a push past the quota is rejected with 429 + Retry-After
# and staging does not grow.
HDRS=$(curl -s -o /dev/null -D - -H 'Content-Type: application/x-smtb' \
    --data-binary @"$SLANG" "http://$GW_ADDR/v1/ingest/t1" | tr -d '\r')
echo "$HDRS" | grep -q '^HTTP/[0-9.]* 429' || fail "over-quota push not 429: $(echo "$HDRS" | head -1)"
echo "$HDRS" | grep -qi '^Retry-After:' || fail "429 without Retry-After"
STAGED=$(curl -fsS "http://$GW_ADDR/metrics" | sed -n 's/^smallcluster_ingest_staging_bytes //p')
[ "$STAGED" -le "$QUOTA" ] || fail "staging grew past quota: $STAGED > $QUOTA"

# The sharded cluster run is byte-identical to the standalone replay.
RUN='{"point":{"table_size":256,"seed":7},"shards":3}'
curl -fsS -d "$RUN" "http://$SOLO_ADDR/v1/ingest/t1/run" >"$TMP/solo-run.json" || fail "standalone run"
curl -fsS -d "$RUN" "http://$GW_ADDR/v1/ingest/t1/run" >"$TMP/gw-run.json" || fail "gateway run"
cmp -s "$TMP/solo-run.json" "$TMP/gw-run.json" ||
    { diff "$TMP/solo-run.json" "$TMP/gw-run.json" || true; fail "cluster run diverges from standalone"; }
grep -q '"lpt_hits"' "$TMP/gw-run.json" || fail "run response has no stats: $(cat "$TMP/gw-run.json")"

# Streaming ingest: an indexed SMRS upload replays shard-by-shard
# while the bytes arrive. The response records when the first shard
# dispatched and when staging finished — the whole point of the
# streaming path is that the first precedes the second. The merged
# statistics must match between standalone and cluster.
STREAM_Q='shard_blocks=1&params=%7B%22table_size%22%3A256%2C%22seed%22%3A7%7D'
curl -fsS --data-binary @"$LYRA" "http://$SOLO_ADDR/v1/ingest/t1/stream?$STREAM_Q" \
    >"$TMP/solo-stream.json" || fail "standalone stream run"
curl -fsS --data-binary @"$LYRA" "http://$GW_ADDR/v1/ingest/t1/stream?$STREAM_Q" \
    >"$TMP/gw-stream.json" || fail "gateway stream run"
for F in "$TMP/solo-stream.json" "$TMP/gw-stream.json"; do
    FIRST=$(sed -n 's/.*"first_shard_ns": \([0-9]*\).*/\1/p' "$F")
    STAGED=$(sed -n 's/.*"staged_ns": \([0-9]*\).*/\1/p' "$F")
    [ -n "$FIRST" ] && [ -n "$STAGED" ] || { cat "$F"; fail "stream response missing latency split"; }
    [ "$FIRST" -gt 0 ] || fail "first_shard_ns is zero (no shard dispatched?)"
    [ "$FIRST" -lt "$STAGED" ] || fail "first shard at ${FIRST}ns did not precede staging completion at ${STAGED}ns"
done
# Timing differs run to run; the replayed statistics may not.
sed -n '/"result"/,$p' "$TMP/solo-stream.json" >"$TMP/solo-stream-stats.json"
sed -n '/"result"/,$p' "$TMP/gw-stream.json" >"$TMP/gw-stream-stats.json"
cmp -s "$TMP/solo-stream-stats.json" "$TMP/gw-stream-stats.json" ||
    { diff "$TMP/solo-stream-stats.json" "$TMP/gw-stream-stats.json" || true; fail "streaming stats diverge between standalone and cluster"; }
grep -q '"shards": 36' "$TMP/solo-stream.json" || fail "expected 36 one-block shards: $(grep '"shards"' "$TMP/solo-stream.json")"
SOLO_METRICS=$(curl -fsS "http://$SOLO_ADDR/metrics")
echo "$SOLO_METRICS" | grep -q '^smalld_ingest_stream_jobs_total 1' ||
    fail "standalone metrics missing smalld_ingest_stream_jobs_total"

# The run consumed staging: the 429 clears and the same push succeeds.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'Content-Type: application/x-smtb' \
    --data-binary @"$SLANG" "http://$GW_ADDR/v1/ingest/t1")
[ "$CODE" = 202 ] || fail "push after consuming run gave $CODE (backpressure never cleared)"
curl -fsS -X DELETE "http://$GW_ADDR/v1/ingest/t1" >/dev/null || fail "drop"

# Merged results landed in the disk cache and the shard spreading shows
# up in the gateway metrics.
ls "$TMP/cache/ingest"/*.json >/dev/null 2>&1 || fail "no cached run landed in -cachedir"
METRICS=$(curl -fsS "http://$GW_ADDR/metrics")
for m in smallcluster_ingest_bytes_total smallcluster_ingest_segments_total \
         smallcluster_ingest_rejected_total smallcluster_ingest_jobs_total \
         smallcluster_ingest_shards_total smallcluster_ingest_stream_jobs_total; do
    echo "$METRICS" | grep -q "^$m" || fail "gateway metrics missing $m"
done
SHARDS=$(echo "$METRICS" | sed -n 's/^smallcluster_ingest_shards_total //p')
[ "$SHARDS" -ge 2 ] || fail "only $SHARDS shards went over the wire, want >= 2"

echo "smoke-ingest: OK"
