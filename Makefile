# Targets mirror what .github/workflows/ci.yml runs.

GO ?= go

# Pinned staticcheck (matches the CI step; bump both together).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race bench bench-json bench-serving bench-check bench-scale bench-smoke chaos-smoke scale-smoke fuzz lint staticcheck fmt vet perfbench-test ci

build:
	$(GO) build ./...

# Tier-1 verify (ROADMAP.md): build plus the full test suite.
test: build
	$(GO) test ./...

# Race pass; -short skips the full-scale experiment replays.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable scorecards, mirrored by the CI artifact uploads:
# BENCH_serving.json is the online streaming benchmark under a
# 4-replica memory-pressured overload (0.25 GiB per-replica KV budget)
# with kv+slo admission — one row per (scheduling policy, preempt
# mode) pair on the identical seeded stream, so every policy's
# swap-vs-recompute tier tradeoff (tier hit rate, recomputed tokens,
# restore p99) is tracked across PRs — plus a fanout section comparing
# copy-on-write forked branches against naive independent branches
# (per-branch KV footprint and branch TTFT) and a fleet section
# comparing the fleet-wide KV store against local recompute under
# replica churn and migration against shedding under a mid-stream
# scale-down; BENCH_core.json is the allocator/engine hot-path
# trajectory (ns/op, allocs/op, sim anchor — the baseline section in
# the committed file is preserved across runs). The -stream, -fanout
# and fleet runs each rewrite their own section of BENCH_serving.json
# and preserve the others'.
bench-json: bench-serving
	$(GO) run ./cmd/jengabench -bench-core -bench-json BENCH_core.json

# The four BENCH_serving.json generators (streaming, fanout, fleet and
# faults sections).
bench-serving:
	$(GO) run ./cmd/jengabench -stream -replicas 4 -requests 480 -rate 600 \
		-slo-ttft 250ms -deadline 2s -admission kv+slo -sched all \
		-preempt all -host-gb 2 -kv-gb 0.25 \
		-bench-json BENCH_serving.json
	$(GO) run ./cmd/jengabench -fanout -kv-gb 2 -bench-json BENCH_serving.json
	$(GO) run ./cmd/jengabench -fleet-store -migrate -replicas 4 -requests 480 \
		-rate 70 -prefix-len 1024 -slo-ttft 250ms -deadline 2s \
		-drain-after 3s -host-gb 2 -kv-gb 0.25 \
		-bench-json BENCH_serving.json
	$(GO) run ./cmd/jengabench -faults -replicas 4 -requests 480 \
		-rate 70 -prefix-len 1024 -slo-ttft 500ms -deadline 6s \
		-host-gb 2 -kv-gb 0.25 \
		-bench-json BENCH_serving.json

# Scorecard gate (part of `make ci`): every BENCH_serving.json row the
# generators above write is simulated and deterministic, so rerunning
# them must reproduce the committed file byte for byte. A diff means a
# change moved the serving, fanout, fleet or faults scorecard.
bench-check: bench-serving
	git diff --exit-code BENCH_serving.json

# Full-size scale benchmark: one million streamed requests on a
# 16-replica fleet through ServeStream, swept across shard counts,
# with a serial ServeOnline baseline pair — writes the scale section
# of BENCH_serving.json. Several minutes of wall time, so it is not
# part of bench-json/CI (every other mode preserves the committed
# scale section); rerun it when the streaming or sharding paths
# change.
bench-scale:
	$(GO) run ./cmd/jengabench -scale-serve -bench-json BENCH_serving.json

# Benchmark smoke: every benchmark must still run (one iteration each),
# so the committed perf trajectory cannot rot.
bench-smoke:
	$(GO) test -run NONE -bench=. -benchtime=1x .

# Chaos smoke (part of `make ci`): a short seeded crash-restart
# schedule with peer-transfer faults runs under the race detector —
# the recovery path (CrashOut/CrashReset, directory invalidation,
# redispatch, bounded retry) must stay deterministic and race-free.
chaos-smoke:
	$(GO) run -race ./cmd/jengabench -faults -replicas 3 -requests 120 \
		-rate 150 -prefix-len 512 -host-gb 1 -kv-gb 0.25

# Scale smoke (part of `make ci`): a ~100k-request streamed ServeStream
# pass over the 16-replica fleet under the race detector, asserting the
# workload is never materialized (peak live heap bounded far below the
# materialized slice's cost) and every request is served. -short skips
# it elsewhere so `make race` doesn't run it twice.
scale-smoke:
	$(GO) test -race -run TestScaleSmoke -v ./internal/bench/

# Timed fuzz over the core free pool, the host-tier/map-reference
# differential, the fork/CoW lifecycle, the prefix-hash memo against
# cold PrefixHash walks, eviction-heap compaction against a
# never-compacting manager and the fleet-directory/map-reference
# differential (the CI fuzz step): the seeded corpora
# always run as part of `make test`; this explores beyond them.
# `go test -fuzz` takes one target per run, so each gets its own
# budget.
fuzz:
	$(GO) test -run NONE -fuzz FuzzFreePool -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzHostTier -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzForkLifecycle -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzHashMemo -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzEvictCompaction -fuzztime 5s ./internal/core
	$(GO) test -run NONE -fuzz FuzzFleetDirectory -fuzztime 5s ./internal/fleet

# jengalint: the repo's own analyzers (internal/analysis) — the
# machine-enforced determinism contract (DESIGN.md): no map-order
# dependence in golden-affecting packages, no wall-clock/global-rand/
# env reads in sim packages, goroutine confinement, the //jenga:hotpath
# zero-alloc contract, and comma-ok capability assertions. Builds from
# the module itself (standard library only), so it runs fully offline
# and is part of `make ci`. It is a standalone driver rather than a
# `go vet -vettool` plugin because vet's unitchecker protocol needs
# golang.org/x/tools, which this module deliberately does not depend
# on.
lint:
	$(GO) run ./cmd/jengalint ./...

# Static analysis beyond vet and jengalint, pinned so local runs and CI
# agree. `go run pkg@ver` needs module-proxy access, so staticcheck is
# the network-optional extra: CI runs it, offline environments get the
# `make vet` + `make lint` coverage instead.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The benchmark (perfbench/) is a module of its own, so the root
# ./... patterns above never reach it: vet it and run its short tests
# from inside.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

ci: vet lint build test race chaos-smoke scale-smoke bench-check perfbench-test
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
