GO ?= go

.PHONY: build vet lint test race smoke-serve smoke-cluster smoke-ingest smoke-dml fuzz-corpus verify bench

build:
	$(GO) build ./...

# cmd/smallbench is a Go module of its own, which the root `./...` never
# reaches. Vetting it compiles the benchmark and its tests against this
# checkout, so renaming a symbol it imports fails here rather than when
# the benchmark next runs. Its tests are not run here.
vet:
	$(GO) vet ./...
	cd cmd/smallbench && $(GO) vet ./...

# Project-specific static analysis (see DESIGN.md "Static analysis"):
# the ten-analyzer smallvet suite — resource close paths, dropped
# errors, goroutine bounds, WaitGroup balance, `// guarded by` lock
# discipline, pooled Reset completeness, interned-opcode dispatch, ctx
# polling, defer-in-loop, decoder allocation limits. Kept separate from
# `vet` so smallvet failures are distinguishable in CI logs; `smallvet
# -json` emits machine-readable findings. Wall-clock is reported so a
# lint slowdown shows up in `make verify` output, not just in CI step
# durations.
lint:
	@start=$$(date +%s%N); \
	$(GO) run ./cmd/smallvet ./...; status=$$?; \
	end=$$(date +%s%N); \
	echo "lint: smallvet (10 analyzers) took $$(( (end - start) / 1000000 )) ms"; \
	exit $$status

test:
	$(GO) test ./...

# The parallel sweep engine is on by default, so the race detector covers
# every experiment's fan-out; verify requires this to pass.
race:
	$(GO) test -race ./...

# End-to-end check of the smalld daemon: build, serve on a random port,
# exercise sessions/sim/metrics with curl, drain on SIGTERM.
smoke-serve:
	sh scripts/smoke_serve.sh

# End-to-end check of the cluster topology: gateway + two workers,
# sticky sessions, stateless spreading, a worker kill (only its
# sessions lost, failover visible in /metrics), SIGTERM drain.
smoke-cluster:
	sh scripts/smoke_cluster.sh

# End-to-end check of the ingest layer: standalone daemon plus a
# gateway + two workers under a tight quota; over-quota pushes must
# 429 with Retry-After, the sharded cluster run must be byte-identical
# to the standalone replay, and merged results must land in the disk
# cache and /metrics.
smoke-ingest:
	sh scripts/smoke_ingest.sh

# Deterministic replay of the codec round-trip properties and the saved
# fuzz corpora under testdata/fuzz (no live fuzzing; use `go test -fuzz`
# for that). Explicit in verify so a format change that breaks a saved
# hostile input fails loudly by name. Covers both untrusted-byte
# decoders (the binary trace codec and the cluster RPC wire protocol)
# and the interpreter-vs-VM session parity scripts.
fuzz-corpus:
	$(GO) test -run 'RoundTrip|^Fuzz' -count 1 ./internal/trace/ ./internal/cluster/wire/ ./internal/vm/

# End-to-end check of distributed Multilisp: gateway + two workers, a
# dml session whose pcall spawns land on real workers over the binary
# verbs, zero weight-increment messages, and full weight recovery on
# session delete.
smoke-dml:
	sh scripts/smoke_dml.sh

verify: build vet lint test race fuzz-corpus smoke-serve smoke-cluster smoke-ingest smoke-dml

# Every package's Go benchmarks, one iteration each: a smoke pass that
# keeps them compiling and running. For numbers, run one package with
# -benchtime, -count and -cpu, e.g.
#   go test -run '^$' -bench BenchmarkBenchprogEval -count 5 ./internal/vm/
# The end-to-end benchmark is cmd/smallbench (see its README).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
