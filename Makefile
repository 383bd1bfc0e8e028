GO ?= go

# Packages whose concurrency matters enough to gate on the race detector.
RACE_PKGS = ./internal/obs ./internal/selection ./internal/estimate ./internal/gain ./internal/core ./internal/bitset ./internal/serve ./internal/modelcache ./internal/faults ./internal/ingest

# Coverage floor (percent) enforced by `make cover` over ./internal/...
COVER_FLOOR = 70

# Allowed fractional per-benchmark slowdown in `make bench-check`. Generous
# on purpose: shared CI runners are noisy; this gate is for 2x-style
# regressions, not 10% jitter.
BENCH_TOLERANCE = 0.5

# Allowed fractional allocs/op growth in `make bench-check`. Much tighter
# than the time gate: allocation counts are near-deterministic, and a
# zero-alloc baseline (the Scale probe path) is pinned exactly.
BENCH_ALLOC_TOLERANCE = 0.25

# Benchmark corpus size: quick runs the 64- and 1k-candidate Scale
# fixtures; full adds the 15,275-source paper corpus (minutes, not
# seconds — use it when refreshing BENCH_selection.json).
BENCH_SCALE ?= quick

# Allowed fractional slowdown in `make servebench-check`. Even more
# generous: serving quantiles come from a short live load against a
# spawned daemon, so the gate only catches order-of-magnitude blowups.
SERVE_TOLERANCE = 3.0

# Build identity stamped into the binaries ( /healthz and the freshbench
# run header report it).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -ldflags "-X freshsource/internal/version.Version=$(VERSION) -X freshsource/internal/version.Commit=$(COMMIT)"

# The deterministic serving workload behind servebench / servebench-check.
# The spawned freshd hosts 4 named tenant worlds (freshbench's default) and
# the report carries per-tenant p95s alongside the per-endpoint quantiles.
# observe weights the streaming-ingestion path: the spawned freshd runs 1s
# epochs and the run drives incremental refits alongside the query load
# (observe replaces reload — ingestion and snapshot hot reload are
# mutually exclusive on one server).
SERVEBENCH_ARGS = -spawn -duration 5s -rps 80 -concurrency 8 -seed 1 \
	-mix "select=5,quality=3,observe=2,freshness=1"

# GOMAXPROCS for the committed multi-core bench profile. 2 keeps the
# profile reproducible on small CI runners while still exercising the
# parallel sweep paths (GOMAXPROCS may exceed physical cores).
MULTICORE_GOMAXPROCS ?= 2

# Time tolerance for the multi-core gate. Looser than BENCH_TOLERANCE
# because the profile may be recorded on a box where GOMAXPROCS exceeds
# physical cores — thread contention plus host CPU steal makes wall
# times swing 2x run-to-run there. The gate targets order-of-magnitude
# parallel-path regressions (like SERVE_TOLERANCE); precise timing
# regressions stay gated by bench-check, and allocs/op — deterministic
# regardless of contention — keep the tight BENCH_ALLOC_TOLERANCE.
MULTICORE_TOLERANCE ?= 2.0

# Speedup assertions for the multi-core profile: each Fast<Slow pair must
# hold in the fresh run (benchjson -require-faster). Unlike the tolerance
# gate this is never waived — it is what keeps the parallel CELF path and
# the pooled parallel sweep genuinely faster than their sequential
# baselines whenever GOMAXPROCS > 1. Pairs whose benchmarks a quick run
# skips (the 15k corpus) are noted, not failed; the full-scale run gates.
MULTICORE_FASTER ?= ScaleCELF/15k/parallel<ScaleCELF/15k/seq,Greedy/parallel+incr<Greedy/incr

# Per-benchmark time for the multi-core profile. Longer than the default
# 1s so each gated pair averages over a window wide enough to ride out
# shared-runner CPU-steal spikes, which otherwise decide the
# require-faster comparison by lottery.
MULTICORE_BENCHTIME ?= 3s

.PHONY: build vet test race chaos lint cover bench bench-smoke bench-check bench-paper bench-multicore bench-multicore-check servebench servebench-smoke servebench-check verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Fault-injection ("chaos") suite: the degraded-mode guarantees of the
# serving stack — hot-reload rollback on corrupt snapshots, torn model
# cache files, disk latency, mid-fit cancellation, reload under fire, and
# the streaming-ingestion seams (torn epoch logs, replayed epochs,
# refit-mid-stream failures) — driven through internal/faults and run
# under the race detector.
chaos:
	$(GO) test -race ./internal/faults
	$(GO) test -race ./internal/ingest
	$(GO) test -race -run 'Chaos|Reload|EpochFlush|Detached|RegistryClose|Ingest|Observe|Epoch' ./internal/serve

# Formatting + static analysis. gofmt failures print the offending files and
# fail; staticcheck runs when installed (CI installs it; local dev without
# it still gets gofmt + vet).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	@tracked=$$(git ls-files | grep -E '\.test$$' || true); \
	if [ -n "$$tracked" ]; then \
		echo "lint: compiled test binaries must not be tracked:"; echo "$$tracked"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Total test coverage over the library packages with a hard floor.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR))}" || \
		{ echo "cover: total coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

# The benchmarks behind bench / bench-smoke / bench-check: the selection
# variant families, the estimator micro-benches, and the Scale family
# (64/1k/15k-candidate corpora; 15k gated on BENCH_SCALE=full).
BENCH_RE = BenchmarkGreedy|BenchmarkGRASP|BenchmarkQualityMultiAdd|BenchmarkEstimatorNew|BenchmarkScale|BenchmarkCachedOracle
BENCH_PKGS = ./internal/selection ./internal/estimate ./internal/modelcache

# Selection hot-path benchmarks → BENCH_selection.json (ns/op and
# allocs/op per variant plus speedups of each accelerated path over its
# sequential baseline). BENCH_SCALE=full includes the 15k paper corpus.
bench:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -timeout 30m \
		$(BENCH_PKGS) | tee /tmp/bench_selection.out
	$(GO) run ./cmd/benchjson -out BENCH_selection.json < /tmp/bench_selection.out

# One-iteration pass over the same benchmarks: CI's compile-and-run gate.
bench-smoke:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime=1x -timeout 30m \
		$(BENCH_PKGS)

# Bench-regression gate: run the tracked benchmarks fresh and diff against
# the committed BENCH_selection.json; fails on any slowdown beyond
# BENCH_TOLERANCE or allocs/op growth beyond BENCH_ALLOC_TOLERANCE.
# Refresh the baseline with `make bench BENCH_SCALE=full` after intended
# performance changes. Quick runs simply skip the 15k benchmarks — absent
# benchmarks are compare warnings, not failures.
bench-check:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -timeout 30m \
		$(BENCH_PKGS) | \
		$(GO) run ./cmd/benchjson -compare BENCH_selection.json \
			-tolerance $(BENCH_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE)

# Multi-core bench profile → BENCH_multicore.json: the same tracked
# benchmarks pinned at GOMAXPROCS=$(MULTICORE_GOMAXPROCS), so the parallel
# sweep speedups are gated on a profile that actually has cores (the
# default BENCH_selection.json baseline may come from a single-core box,
# where benchjson waives the parallel-variant gate entirely). Two recipe
# lines on purpose: an env prefix only covers the first command of a
# pipeline, so the bench run and the benchjson reduction each carry their
# own GOMAXPROCS.
bench-multicore:
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime=$(MULTICORE_BENCHTIME) -timeout 30m \
		$(BENCH_PKGS) > /tmp/bench_multicore.out
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) $(GO) run ./cmd/benchjson -out BENCH_multicore.json \
		-require-faster '$(MULTICORE_FASTER)' < /tmp/bench_multicore.out
	@grep -q '"gomaxprocs": "1"' BENCH_multicore.json && \
		{ echo "bench-multicore: profile recorded GOMAXPROCS=1; want >1"; exit 1; } || true

# Multi-core regression gate: fresh GOMAXPROCS-pinned run diffed against
# the committed BENCH_multicore.json, parallel-variant speedup gate
# included (never waived, unlike a single-core run).
bench-multicore-check:
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime=$(MULTICORE_BENCHTIME) -timeout 30m \
		$(BENCH_PKGS) > /tmp/bench_multicore.out
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) $(GO) run ./cmd/benchjson -compare BENCH_multicore.json \
		-tolerance $(MULTICORE_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE) \
		-require-faster '$(MULTICORE_FASTER)' < /tmp/bench_multicore.out

# Scaled-down paper-experiment benches at the repo root.
bench-paper:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Serving benchmark: freshbench drives a spawned multi-tenant freshd with
# the deterministic mixed workload and writes BENCH_serving.json
# (per-endpoint p50/p95/p99, per-tenant p95s, 429/504/error rates,
# allocs/request). Refresh the committed baseline with this target after
# intended serving changes.
servebench:
	$(GO) run $(LDFLAGS) ./cmd/freshbench $(SERVEBENCH_ARGS) -out BENCH_serving.json

# Short freshbench passes: CI's compile-and-serve smoke gate. The second
# run benches through freshgate — two spawned backends behind the
# consistent-hash routing tier.
servebench-smoke:
	$(GO) run $(LDFLAGS) ./cmd/freshbench -spawn -duration 2s -rps 40 -tenants 2 > /dev/null
	$(GO) run $(LDFLAGS) ./cmd/freshbench -spawn -gate -duration 2s -rps 40 -tenants 2 > /dev/null

# Serving-regression gate: a fresh load run diffed against the committed
# BENCH_serving.json via the same benchjson -compare used for the solver
# benchmarks.
servebench-check:
	$(GO) run $(LDFLAGS) ./cmd/freshbench $(SERVEBENCH_ARGS) | \
		$(GO) run ./cmd/benchjson -compare BENCH_serving.json -tolerance $(SERVE_TOLERANCE)

# Tier-1 verification: everything CI runs.
verify: build vet test race
