GO ?= go
FUZZTIME ?= 20s
COVER_MIN ?= 70
BENCH_BASELINE ?= BENCH_PR10.json
BENCH_REGRESS ?= 25

.PHONY: build test check race race-full fmt vet lint bench benchcheck perfbench-test fuzz cover trace serve-smoke cluster-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Project-specific static analysis (internal/lint): determinism, lock
# copies, float equality, error discipline, and library panics. Fails on any
# unsuppressed finding.
lint:
	$(GO) run ./cmd/dynnlint ./...

# Race-check the concurrent runtime (sharded cache, parallel epochs, pilot),
# the packages the fault injector threads through (simulator, counters), and
# the serving/cluster layers (admission, dispatch, the DES runtime).
race:
	$(GO) test -race ./internal/core/... ./internal/obsv/... ./internal/pilot/... \
		./internal/gpusim/... ./internal/faults/... \
		./internal/serve/... ./internal/distributed/...

# Race-check everything (slow).
race-full:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Benchmark-regression gate: re-run the hot-path suite (graph_resolve,
# des_iteration, plan_cache_hit/miss, serve_step, online_retrain) and fail on
# any ns/op more than BENCH_REGRESS% over the committed baseline. Leaves
# bench-current.json behind for inspection / CI artifact upload.
benchcheck:
	$(GO) run ./cmd/dynnbench -benchjson bench-current.json \
		-benchbaseline $(BENCH_BASELINE) -benchregress $(BENCH_REGRESS)

# The whole-run benchmark's own tests (its statistics and the
# BENCHMARK.json <-> metric catalog check). perfbench is a separate module
# that replaces dynnoffload with this checkout, so it builds from here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Native Go fuzzing of graph resolution, the Sentinel partitioner, plan
# signatures, the pilot's nearest-path scan against a naive scan, and the
# GPU residency pool against a map-backed model. Each
# -fuzz pattern needs its own go test invocation; seed corpora live under the
# packages' testdata/fuzz/. CI runs this with a short FUZZTIME as a smoke
# pass; raise it locally to dig (e.g. make fuzz FUZZTIME=10m).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzResolve$$' -fuzztime $(FUZZTIME) ./internal/dynn
	$(GO) test -run '^$$' -fuzz '^FuzzPartition$$' -fuzztime $(FUZZTIME) ./internal/sentinel
	$(GO) test -run '^$$' -fuzz '^FuzzPlanSignature$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzNearestPath$$' -fuzztime $(FUZZTIME) ./internal/pilot
	$(GO) test -run '^$$' -fuzz '^FuzzMemPool$$' -fuzztime $(FUZZTIME) ./internal/gpusim

# Coverage gate over the internal packages: fails below COVER_MIN% total.
# Leaves coverage.out behind for inspection / CI artifact upload.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit !(t+0 >= min+0) }' || \
		{ echo "coverage below $(COVER_MIN)%"; exit 1; }

# Timeline-tracing smoke: record a small traced epoch, validate the Chrome
# Trace Event file, and render the overlap report. Leaves trace.json behind
# for inspection / CI artifact upload.
trace:
	$(GO) run ./cmd/dynnbench -trace trace.json -model Tree-LSTM \
		-train 200 -test 40 -epochs 4 -workers 2
	$(GO) run ./cmd/dynntrace -check trace.json
	$(GO) run ./cmd/dynntrace trace.json

# Serving smoke at CI scale: a two-tenant dynnserve run over the engine and
# the on-demand baseline, then the offered-load sweep (max sustainable QPS at
# the fixed p99 SLO) on one migrating model. The engine run records the
# flight recorder (flight-serve-*.jsonl) and its report — including the SLO
# attribution table — lands in serve-attribution.txt for inspection / CI
# artifact upload. A third run turns on online pilot learning and leaves the
# windowed mispredict-rate trajectory (serve-trajectory.jsonl) behind.
serve-smoke:
	$(GO) run ./cmd/dynnserve -model Tree-LSTM -train 200 -test 40 -epochs 4 \
		-flight flight-serve \
		-tenants "alpha:rate=2000,requests=60,slo=50ms,quota=0.5;beta:rate=2000,requests=60,slo=50ms,quota=0.5" \
		> serve-attribution.txt
	cat serve-attribution.txt
	$(GO) run ./cmd/dynnserve -model Tree-LSTM -train 200 -test 40 -epochs 4 -ondemand \
		-tenants "alpha:rate=2000,requests=60,slo=50ms,quota=0.5;beta:rate=2000,requests=60,slo=50ms,quota=0.5"
	$(GO) run ./cmd/dynnserve -model Tree-LSTM -train 200 -test 40 -epochs 4 \
		-online -interval 8 -trajectory serve-trajectory.jsonl \
		-tenants "alpha:rate=2000,requests=60,slo=50ms,quota=0.5;beta:rate=2000,requests=60,slo=50ms,quota=0.5"
	$(GO) run ./cmd/dynnbench -exp servesweep -train 200 -test 40 -epochs 4
	$(GO) run ./cmd/dynnbench -exp onlinesweep -train 200 -test 40 -epochs 4

# Cluster smoke at CI scale: a 4-replica elastic serving run through the
# public facade (cmd/dynnserve -gpus), a data-parallel Fig 10 epoch on the
# cluster DES runtime, and the capacity sweep (max sustainable QPS vs GPU
# count at fixed p99 SLO) with its machine-readable curves left behind for
# inspection / CI artifact upload. The serving run leaves the cluster
# attribution report (cluster-attribution.txt), per-replica flight-recorder
# snapshots (flight-cluster-*.jsonl), and a request-stamped trace
# (cluster-trace.json) rendered through dynntrace's per-request timelines.
cluster-smoke:
	$(GO) run ./cmd/dynnserve -model Tree-CNN -batch 12 -gpus 4 -minreplicas 1 \
		-scaleup 100us -scaledown 5ms -train 200 -test 40 -epochs 4 \
		-flight flight-cluster -trace cluster-trace.json \
		-tenants "alpha:rate=2000,requests=60,slo=200ms,quota=0.5;beta:rate=2000,requests=60,slo=200ms,quota=0.5" \
		> cluster-attribution.txt
	cat cluster-attribution.txt
	$(GO) run ./cmd/dynntrace -requests 5 cluster-trace.json
	$(GO) run ./cmd/dynnbench -exp fig10 -train 200 -test 40 -epochs 4
	$(GO) run ./cmd/dynnbench -exp clustersweep -train 200 -test 40 -epochs 4 \
		-clusterjson cluster-sweep.json

# The tier-1 gate: build, vet, formatting, project lint, full tests, and the
# race pass over the concurrent packages.
check: build vet fmt lint test race
	@echo "check: OK"
