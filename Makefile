# Convenience targets for the HeteroGen repo. Everything is standard
# library Go; `make check` is the gate new changes must pass.

GO ?= go

.PHONY: all build test check race bench-all bench-smoke bench-compile bench-sim allocs vet profile serve

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages the parallel search touches (the model
# checker, the litmus suite pool, the compiler, the engine layer and the
# server's job/SSE machinery). The POR and storage agreement matrices and
# TestPORVerdictsWorkerInvariant put the mcheck package near go test's
# default 10m cap under the race detector on a one-core runner, hence the
# explicit timeout.
race:
	$(GO) test -race -timeout 30m ./internal/mcheck/... ./internal/litmus/... ./internal/core/... ./internal/engine/... ./internal/server/... ./internal/protocols/...

# Allocation regression guards: the search hot path (memo lookups, the
# vector edit, keying and Insert, allocation-free for a rejected successor
# once every memo is warm, under both storage modes), the cost
# of a System Clone, the bytes-per-state guard on the compacted visited
# table, the frontier publish/take cycle, the compiler's memo-hit replay
# path, the steady-state deliveries of a cache, a directory and the
# merged directory, and the simulator's
# discrete-event loop (allocs per memory operation). Runs without the
# race detector: its instrumentation changes alloc counts, so the alloc
# guard files are build-tagged out of `make race`.
allocs:
	$(GO) test -run 'TestAllocRegression|TestBytesPerStateRegression' ./internal/mcheck ./internal/sim ./internal/core ./internal/spec

# The verification gate: vet, race-checked tests of the concurrent
# packages, and the allocation guard.
check: vet race allocs

# Minutes-scale end-to-end health check: a MaxStates-capped §VII-C search
# plus the 2-thread litmus shapes on the headline pair.
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkSmoke' -benchtime 1x -timeout 10m .

# Regenerate BENCH_COMPILE.json (schema v3): the §VII-C search through the
# interpreted composite, memoized table extraction, the growing-table
# check, the dispatch-only precompiled check, and the .hgcf
# artifact lifecycle (serialize, cold load, cold load + check). The
# output path travels in BENCH_COMPILE_OUT (bench_test.go's emitBench);
# without it the benchmark runs but writes nothing.
bench-compile:
	BENCH_COMPILE_OUT=BENCH_COMPILE.json $(GO) test -run XXX -bench 'BenchmarkCompile' -benchtime 1x -timeout 30m .

# Regenerate BENCH_SIM.json: the full-scale Figure 10 sweep, the stress
# trace families and the Table II pair sweep, all through the parallel
# scenario runner. The figure10 section records the wall-clock against the
# pre-optimization sequential engine's measured baseline (see
# EXPERIMENTS.md §VIII).
bench-sim:
	$(GO) run ./cmd/hgsim -family all -pairs -json BENCH_SIM.json

# Regenerate BENCH_COMPILE.json and BENCH_SIM.json in one sitting. Search
# timing is hgbench's job (hgbench/run.sh); the search counts are pinned
# by the internal/mcheck soundness tests and the CI §VII-C headline step.
bench-all: bench-compile bench-sim

# Run the verification daemon locally with a warm compile cache and a
# bounded memory pool; see docs/SERVER.md for the API.
serve: build
	$(GO) run ./cmd/hgserve -addr 127.0.0.1:8080 -compile-cache .hgcache -mem-pool 1GiB

# CPU- and heap-profile the §VII-C search (POR on, hash compaction).
# Writes /tmp/hgcheck.{cpu,mem}.pprof; inspect with
# `go tool pprof /tmp/hgcheck.cpu.pprof`.
profile: build
	$(GO) run ./cmd/hgcheck -pair MESI,RCC-O -caches 1 -addrs 2 \
		-workers 1 -cpuprofile /tmp/hgcheck.cpu.pprof -memprofile /tmp/hgcheck.mem.pprof
