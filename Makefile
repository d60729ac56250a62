GO ?= go

.PHONY: ci fmt vet perfbench-vet build test race test-no-mmap fuzz-smoke metrics-smoke bench-shards bench-shards-smoke bench-cascade bench-cascade-smoke bench-refine bench-refine-smoke bench-flat bench-flat-smoke bench-knn bench-knn-smoke bench-cache bench-cache-smoke bench-wal bench-wal-smoke crash-tests

# Full gate: formatting, static checks (including the nested perfbench
# module, which the root ./... patterns skip), build, the whole test suite
# (including the fault-injection recovery tests) under the race detector,
# the flat-engine suite re-run with mmap disabled (the eager-read fallback
# must behave identically), a short fuzz pass over the envelope/lower-bound
# oracles and the mmap snapshot reader, the observability smoke (boots
# twsimd, scrapes /metrics, validates the exposition), and short benchmark
# smokes for the sharded engine, the refine cascade (including the banded
# leg with its brute-force banded oracle), intra-query parallel refinement,
# the flat-vs-Guttman index engine comparison (bit-identity + zero-alloc
# walk), the envelope-ordered k-NN harness (ordering on/off bit-identity +
# conservation law), and the result-cache/serving-under-load harness
# (zero-work hit path, cached-vs-uncached bit-identity under interleaved
# writes, real 429 shedding through an HTTP server), the WAL crash-simulation
# suite (torn tail, corrupt middle record, duplicate replay — each recovered
# state compared record-for-record against a never-crashed database), and the
# WAL write-path smoke with its kill-and-reopen acked-loss check.
ci: fmt vet perfbench-vet build race test-no-mmap fuzz-smoke metrics-smoke bench-shards-smoke bench-cascade-smoke bench-refine-smoke bench-flat-smoke bench-knn-smoke bench-cache-smoke crash-tests bench-wal-smoke

# The flat-engine packages once more with TWSIM_NO_MMAP=1: every snapshot
# open goes through the eager read-and-checksum fallback instead of the
# mmap path, so both Load flavors stay green on every CI run.
test-no-mmap:
	TWSIM_NO_MMAP=1 $(GO) test ./internal/flatidx ./internal/core .

# Short coverage-guided fuzz passes over the ordering oracles: the deque
# envelope vs the quadratic reference, the lower-bound chain
# LB_Keogh <= LB_Improved <= BandDistance with BandDistance >= Distance,
# the sparse banded kernel vs the dense banded DP (bit-identical), the
# envelope sidecar decoder (CRC-valid hostile sidecars must be rejected or
# load without panicking), the flat-slab codec, the mmap snapshot loader (hostile files must
# error out or load into an index that walks without faulting), and the two
# replica decoders — snapshot and WAL-tail bytes arrive from the network and
# must either be rejected or apply to a replica that still passes Verify.
# Go permits one fuzz target per -fuzz run, so each gets its own pass.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzEnvelopeDeque$$' -fuzztime=5s ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzBandedBoundChain$$' -fuzztime=5s ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzBandKernel$$' -fuzztime=5s ./internal/dtw
	$(GO) test -run=^$$ -fuzz='^FuzzLoadEnvStore$$' -fuzztime=5s ./internal/core
	$(GO) test -run=^$$ -fuzz='^FuzzSlabRoundtrip$$' -fuzztime=5s ./internal/flatidx
	$(GO) test -run=^$$ -fuzz='^FuzzMmapLoad$$' -fuzztime=5s ./internal/flatidx
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeReplSnapshot$$' -fuzztime=5s .
	$(GO) test -run=^$$ -fuzz='^FuzzParseWALRecords$$' -fuzztime=5s .

# Boots a real twsimd on an ephemeral port, drives traffic, and verifies
# GET /metrics is valid Prometheus exposition with the key series present
# (including the candidates = pruned + dtw_calls conservation law).
metrics-smoke:
	$(GO) build -o bin/twsimd ./cmd/twsimd
	$(GO) run ./cmd/metricssmoke -bin ./bin/twsimd

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The benchmark harness is its own module (perfbench/go.mod), so the root
# ./... patterns skip it; vet it separately so a public-API change that
# breaks the benchmark fails CI.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Sharded query engine throughput at 1/4/GOMAXPROCS shards on the synthetic
# random-walk workload; writes BENCH_shard.json.
bench-shards:
	$(GO) run ./cmd/benchshards

# Tiny workload, no output file: proves the harness runs end to end.
bench-shards-smoke:
	$(GO) run ./cmd/benchshards -smoke >/dev/null

# Refine-cascade benchmark: DTW-call reduction, per-tier prune counts,
# kernel ns/op vs the pre-kernel baseline, and steady-state allocs/op on the
# benchshards workload plus a mixed-length variant; writes BENCH_cascade.json.
bench-cascade:
	$(GO) run ./cmd/benchcascade

# Tiny workload, no output file or kernel timings; also verifies cascade and
# baseline results are bit-identical on the smoke corpus.
bench-cascade-smoke:
	$(GO) run ./cmd/benchcascade -smoke >/dev/null

# Intra-query parallel refinement + decoded-sequence cache: qps/latency and
# pool/cache hit rates at 1/2/4/GOMAXPROCS refine workers on the benchshards
# workload; writes BENCH_refine.json.
bench-refine:
	$(GO) run ./cmd/benchrefine

# Tiny workload, no output file; also verifies every worker budget's results
# are bit-identical to the serial baseline on the smoke corpus.
bench-refine-smoke:
	$(GO) run ./cmd/benchrefine -smoke >/dev/null

# Flat-engine vs Guttman R-tree: raw filter-walk ns/op (with the 1.3x
# speedup fence and the zero-allocation steady-state check) plus end-to-end
# qps per engine at GOMAXPROCS=1 and full width, with bit-identity between
# engines enforced; writes BENCH_flat.json.
bench-flat:
	$(GO) run ./cmd/benchflat

# Tiny workload, no output file; keeps the alloc check and bit-identity
# verification, relaxes the speedup fence (smoke sizes are noise-bound).
bench-flat-smoke:
	$(GO) run ./cmd/benchflat -smoke >/dev/null

# Envelope-ordered k-NN: exact DTW calls, frontier pushes/re-pushes, and
# qps for k in {1,10,100} x engines {guttman,flat} x bands {0,8}, ordering
# on vs off, with on/off bit-identity and the conservation law enforced on
# every row; writes BENCH_knn.json. Full mode fails unless ordering cuts
# exact DTW calls by >= 30% at k=10 band=8 on both engines.
bench-knn:
	$(GO) run ./cmd/benchknn

# Tiny workload, no output file; keeps bit-identity and conservation
# checks, skips the reduction fence (smoke sizes are noise-bound).
bench-knn-smoke:
	$(GO) run ./cmd/benchknn -smoke >/dev/null

# Result cache + serving under load: cold-vs-hot query latency (with the
# 10x hot-hit fence and the zero-work hit check), hit ratio under a Zipf
# query mix with interleaved writes (cached results verified bit-identical
# against an uncached twin), and an overload leg through a real HTTP
# server with admission limits (accepted p50/p99, 429 counts); writes
# BENCH_cache.json.
bench-cache:
	$(GO) run ./cmd/benchcache

# Tiny workload, no output file; keeps the zero-work hit check, the
# bit-identity verification, and the 429 shedding check, skips the 10x
# latency fence (smoke sizes are noise-bound).
bench-cache-smoke:
	$(GO) run ./cmd/benchcache -smoke >/dev/null

# Group-commit WAL write path: acknowledge p50/p99, throughput, and
# fsyncs-per-op at 1/4/16 concurrent writers, WAL on vs off, plus a
# copy-dir kill-and-reopen check that no acknowledged write is lost;
# writes BENCH_wal.json. Full mode fails unless 16 writers amortize to
# under one fsync per write and the 16-writer p99 stays within the flush
# interval plus a calibrated fsync allowance.
bench-wal:
	$(GO) run ./cmd/benchwal

# Tiny workload, no output file; keeps the kill-and-reopen acked-loss
# check, skips the latency/fsync fences (smoke sizes are noise-bound).
bench-wal-smoke:
	$(GO) run ./cmd/benchwal -smoke >/dev/null

# The WAL crash-simulation suite on its own: torn final record, CRC-corrupt
# middle record, duplicate replay after a mid-checkpoint crash, plus the
# injected directory-fsync failure — each recovered database compared
# record-for-record and query-for-query against a never-crashed twin.
crash-tests:
	$(GO) test -run 'TestCrash|TestDirSync' .
