GO ?= go

.PHONY: all build test fuzz-smoke bench bench-json bench-core bench-session bench-store bench-partition bench-cluster edfbench-test serve smoke smoke-cluster lint-metrics fmt vet clean

all: build test

build:
	$(GO) build ./...

test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/engine/ ./internal/service/... ./internal/cluster/ ./internal/store/ ./internal/obs/ ./internal/partition/

# Fuzz smoke: `go test ./...` only replays the seed corpora; this runs
# each fuzz target alone for FUZZTIME of fresh inputs. A failing input is
# written under that package's testdata/fuzz: commit it with the fix.
# The fuzzer minimizes each new interesting input for up to 60 s by
# default, which would eat a short run; 200 executions per input bound it.
FUZZTIME ?= 10s
FUZZ = $(GO) test -run '^$$' -fuzzminimizetime 200x -fuzztime $(FUZZTIME)
fuzz-smoke:
	$(FUZZ) -fuzz '^FuzzReadJSON$$' ./internal/model/
	$(FUZZ) -fuzz '^FuzzVerdictAgreement$$' ./internal/core/
	$(FUZZ) -fuzz '^FuzzChunkedVsBigRat$$' ./internal/numeric/
	$(FUZZ) -fuzz '^FuzzFastVsBigRat$$' ./internal/numeric/
	$(FUZZ) -fuzz '^FuzzPlanRebuild$$' ./internal/numeric/
	$(FUZZ) -fuzz '^FuzzUtilSumCmp$$' ./internal/numeric/
	$(FUZZ) -fuzz '^FuzzCmpMulAdd$$' ./internal/numeric/
	$(FUZZ) -fuzz '^FuzzUtilSumPlus$$' ./internal/numeric/
	$(FUZZ) -fuzz '^FuzzValid$$' ./internal/workload/
	$(FUZZ) -fuzz '^FuzzWorkloadJSON$$' ./internal/engine/
	$(FUZZ) -fuzz '^FuzzSimReferee$$' ./internal/engine/
	$(FUZZ) -fuzz '^FuzzFillVsBigRat$$' ./internal/partition/
	$(FUZZ) -fuzz '^FuzzRequestJSON$$' ./internal/service/
	$(FUZZ) -fuzz '^FuzzWireEncode$$' ./internal/service/
	$(FUZZ) -fuzz '^FuzzReplyJSON$$' ./internal/service/
	$(FUZZ) -fuzz '^FuzzWALReplay$$' ./internal/store/
	$(FUZZ) -fuzz '^FuzzExposition$$' ./internal/obs/
	$(FUZZ) -fuzz '^FuzzSSEScanner$$' ./internal/obs/

bench:
	$(GO) test -bench . -benchmem -run xxx . | tee bench.out

# Service benchmarks as machine-readable test2json events (one smoke
# iteration per benchmark), for CI trend tracking.
bench-json:
	$(GO) test -json -bench . -benchtime 1x -run xxx ./internal/service/ > BENCH_service.json

# Core analyzer hot-path benchmarks, merged into the committed trend file
# BENCH_core.json (the first run freezes the baseline section; later runs
# only replace "current"). BENCHTIME trades precision for runtime. The
# test output lands in a temp file first so a benchmark failure aborts
# the recipe instead of being masked by the pipe. With GATE=<pct> set,
# benchmerge exits non-zero when any benchmark regresses more than pct%
# (ns/op, or any allocation on a 0-alloc baseline) vs the frozen
# baseline — the CI regression gate protecting the zero-alloc hot path.
BENCHTIME ?= 300ms
GATE ?=
bench-core:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) ./internal/core/ > bench-core.out
	$(GO) run ./cmd/benchmerge -out BENCH_core.json $(if $(GATE),-gate $(GATE)) < bench-core.out
	rm -f bench-core.out

# Session admission benchmarks (incremental fast path vs full
# re-analysis on 1k-task sessions, session open, plus churn replay),
# merged into the committed trend file BENCH_session.json under the same
# baseline/gate rules as bench-core. Both incremental propose benchmarks
# (grid and spread periods) have a 0-alloc baseline, so with GATE set
# any allocation on the fast path fails CI.
bench-session:
	$(GO) test -run xxx -bench BenchmarkSession -benchmem -benchtime $(BENCHTIME) ./internal/service/ > bench-session.out
	$(GO) run ./cmd/benchmerge -out BENCH_session.json $(if $(GATE),-gate $(GATE)) < bench-session.out
	rm -f bench-session.out

# Durable-store benchmarks (sync append latency p50/p99 and fsyncs/op
# of the default store under 16 concurrent appenders, plus cold journal
# replay), merged into the committed trend file BENCH_store.json under
# the same baseline/gate rules as bench-core.
bench-store:
	$(GO) test -run xxx -bench BenchmarkStore -benchmem -benchtime $(BENCHTIME) ./internal/store/ > bench-store.out
	$(GO) run ./cmd/benchmerge -out BENCH_store.json $(if $(GATE),-gate $(GATE)) < bench-store.out
	rm -f bench-store.out

# Partitioned-placement benchmarks (first-fit/worst-fit/balance over
# m in {2,4,8,16} processors, plus one pass over a fixed seeded corpus of
# partition-cold-shaped platforms with their failure trails; every row
# reports its trials as checks/op), merged into the committed trend file
# BENCH_partition.json under the same baseline/gate rules as bench-core.
bench-partition:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) ./internal/partition/ > bench-partition.out
	$(GO) run ./cmd/benchmerge -out BENCH_partition.json $(if $(GATE),-gate $(GATE)) < bench-partition.out
	rm -f bench-partition.out

# Cluster benchmarks: 2 edfd replicas behind edfproxy vs a single direct
# edfd, as machine-readable test2json events in the committed trend file
# BENCH_cluster.json. The output lands in a temp file first so a failed
# benchmark run cannot clobber the committed numbers. CI smokes the suite
# with CLUSTER_BENCHTIME=1x into a separate CLUSTER_BENCH_OUT for the
# same reason; the committed numbers use the defaults.
CLUSTER_BENCHTIME ?= 1s
CLUSTER_BENCH_OUT ?= BENCH_cluster.json
bench-cluster:
	$(GO) test -json -run xxx -bench BenchmarkCluster -benchtime $(CLUSTER_BENCHTIME) ./internal/cluster/ > bench-cluster.out
	mv bench-cluster.out $(CLUSTER_BENCH_OUT)

# Self-tests of the end-to-end benchmark (its own Go module under
# edfbench/): percentile, span and reference-ratio arithmetic, the
# BENCHMARK.json tables, and a short run of all four workloads with their
# oracles checking every answer.
edfbench-test:
	$(GO) -C edfbench test ./...

# Run the edfd feasibility daemon locally.
serve:
	$(GO) run ./cmd/edfd -addr :8080

# End-to-end smoke: build and start a real edfd, drive analyze, batch and
# session propose-batch with both workload models through the typed
# client, fail on any non-2xx.
smoke:
	$(GO) run ./cmd/edfsmoke

# Cluster smoke: 2 real edfd replicas behind a real edfproxy, the full
# protocol suite through the proxy plus ring-affinity, deterministic
# split/merge and aggregate-metrics checks.
smoke-cluster:
	$(GO) run ./cmd/edfsmoke -cluster 2

# Metrics-contract lint: boot real edfd replicas behind a real
# edfproxy, drive each metered path once, scrape every daemon's
# /metrics and validate the pages as Prometheus text exposition with
# the repo's own parser (no external deps): # TYPE before samples,
# family contiguity, histogram +Inf/_count consistency, label escaping
# and the edfd_/edfproxy_ family-name prefixes.
lint-metrics:
	$(GO) run ./cmd/edfpromlint

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	rm -f bench.out bench-core.out bench-session.out bench-store.out bench-partition.out bench-cluster.out BENCH_service.json
	$(GO) clean ./...
