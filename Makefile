GO ?= go
FUZZTIME ?= 20s
COVER_MIN ?= 70

.PHONY: build test check race race-full fmt vet vet-arm64 lint bench epoch-smoke perfbench-test fuzz cover trace serve-smoke cluster-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Vet the kernel and its callers as arm64 code too: there MatVecT has only
# its pure-Go body, so this keeps that body and the build-constrained files
# compiling. (On amd64, vet's asmdecl already checks the assembly's frame.)
vet-arm64:
	GOARCH=arm64 $(GO) vet ./internal/mathx/... ./internal/nn/... ./internal/pilot/...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Project-specific static analysis (internal/lint): determinism, float
# equality, error discipline, library panics, and clock units. Fails on any
# unsuppressed finding. Lock copies are go vet's copylocks check (vet). The
# same run writes its findings as SARIF to dynnlint.sarif for code scanning.
lint:
	$(GO) run ./cmd/dynnlint -sarif dynnlint.sarif ./...

# Race-check the concurrent runtime (the engine caches, parallel epochs, pilot),
# the packages the fault injector threads through (simulator, counters), and
# the serving/cluster layers (admission, dispatch, the DES runtime).
race:
	$(GO) test -race ./internal/core/... ./internal/obsv/... ./internal/pilot/... \
		./internal/gpusim/... ./internal/faults/... \
		./internal/serve/... ./internal/distributed/...

# Race-check everything (slow).
race-full:
	$(GO) test -race ./...

# Host-time benchmarks (testing.B): every paper table and figure plus the
# runtime's hot loops. Not a gate; compare repeated runs with benchstat
# (e.g. go test -run='^$' -bench=GraphResolve -count=10 . > new.txt). The
# gate on the hot loops is their allocation counts: TestHotPathAllocs in
# internal/expt, part of the test target.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Two-worker epoch smoke: the worker-pool speedup check run alone, where no
# other test binary holds the cores (under go test ./... it skips when the
# host has no free core for it), then one epoch of BenchmarkTrainEpoch at 1
# and 2 workers through the facade.
epoch-smoke:
	$(GO) test -count=1 -run '^TestParallelEpochSpeedup$$' -v ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkTrainEpoch$$' -benchtime 1x .

# The whole-run benchmark's own tests (its statistics and the
# BENCHMARK.json <-> metric catalog check). perfbench is a separate module
# that replaces dynnoffload with this checkout, so it builds from here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Native Go fuzzing, one target each: FuzzResolve (graph resolution),
# FuzzPartition (the Sentinel partitioner), FuzzNearestPath (the pilot's
# nearest-path scan against a naive scan), FuzzMemPool (the GPU residency pool
# against a map-backed model), FuzzParseSpec (the fault-spec parser: no panic;
# accepted specs round-trip), FuzzLoad (the pilot file reader, test-only: no
# panic; an accepted file re-saves to identical bytes), FuzzParseTenants (the
# dynnserve tenant DSL: no panic; every accepted tenant is within bounds),
# FuzzReadChromeTrace (the Chrome-trace reader and the analyses on what it
# loads: no panic; loaded spans write and read back equal; any span set the
# writer accepts reads back equal and writes again to the same bytes),
# FuzzMatVecT (the pilot MLPs' forward kernel in training and inference: both
# MatVecT bodies, assembly and pure Go, against MatVec over the transpose:
# equal bits), FuzzSqDist16 (the nearest-path distance kernel: both
# SqDist16 bodies against a naive scan: equal bits and the same abandon
# decision) and FuzzMomentumStep (the pilot MLPs' SGD-with-momentum weight
# update: both MomentumStep bodies, assembly and pure Go: equal weights,
# velocities and backprop sums). Each -fuzz pattern needs its own go test
# invocation; seed corpora live in the packages' testdata/fuzz/ or their f.Add
# calls. CI runs this with a short FUZZTIME as a smoke pass; raise it locally
# to dig (e.g. make fuzz FUZZTIME=10m).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzResolve$$' -fuzztime $(FUZZTIME) ./internal/dynn
	$(GO) test -run '^$$' -fuzz '^FuzzPartition$$' -fuzztime $(FUZZTIME) ./internal/sentinel
	$(GO) test -run '^$$' -fuzz '^FuzzNearestPath$$' -fuzztime $(FUZZTIME) ./internal/pilot
	$(GO) test -run '^$$' -fuzz '^FuzzMemPool$$' -fuzztime $(FUZZTIME) ./internal/gpusim
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) ./internal/pilot
	$(GO) test -run '^$$' -fuzz '^FuzzParseTenants$$' -fuzztime $(FUZZTIME) ./cmd/dynnserve
	$(GO) test -run '^$$' -fuzz '^FuzzReadChromeTrace$$' -fuzztime $(FUZZTIME) ./internal/obsv
	$(GO) test -run '^$$' -fuzz '^FuzzMatVecT$$' -fuzztime $(FUZZTIME) ./internal/mathx
	$(GO) test -run '^$$' -fuzz '^FuzzSqDist16$$' -fuzztime $(FUZZTIME) ./internal/mathx
	$(GO) test -run '^$$' -fuzz '^FuzzMomentumStep$$' -fuzztime $(FUZZTIME) ./internal/mathx

# Coverage gate over the internal packages: fails below COVER_MIN% total.
# Leaves coverage.out behind for inspection / CI artifact upload.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit !(t+0 >= min+0) }' || \
		{ echo "coverage below $(COVER_MIN)%"; exit 1; }

# Timeline-tracing smoke: record a small traced epoch, record the same epoch
# again at one worker and require the two files to be byte-identical (a
# trace is a pure function of the simulated run), validate the Chrome Trace
# Event file, and render the overlap report. Leaves trace.json behind for
# inspection / CI artifact upload.
trace:
	$(GO) run ./cmd/dynnbench -trace trace.json -model Tree-LSTM \
		-train 200 -test 40 -epochs 4 -workers 2
	$(GO) run ./cmd/dynnbench -trace trace-1w.json -model Tree-LSTM \
		-train 200 -test 40 -epochs 4 -workers 1
	cmp trace.json trace-1w.json
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
# A second elastic run turns on online pilot learning across the replicas
# and leaves its mispredict-rate trajectory (cluster-trajectory.jsonl).
cluster-smoke:
	$(GO) run ./cmd/dynnserve -model Tree-CNN -batch 12 -gpus 4 -minreplicas 1 \
		-scaleup 100us -scaledown 5ms -train 200 -test 40 -epochs 4 \
		-flight flight-cluster -trace cluster-trace.json \
		-tenants "alpha:rate=2000,requests=60,slo=200ms,quota=0.5;beta:rate=2000,requests=60,slo=200ms,quota=0.5" \
		> cluster-attribution.txt
	cat cluster-attribution.txt
	$(GO) run ./cmd/dynntrace -requests 5 cluster-trace.json
	$(GO) run ./cmd/dynnserve -model Tree-CNN -batch 12 -gpus 4 -minreplicas 1 \
		-scaleup 100us -scaledown 5ms -train 200 -test 40 -epochs 4 \
		-online -interval 8 -trajectory cluster-trajectory.jsonl \
		-tenants "alpha:rate=2000,requests=60,slo=200ms,quota=0.5;beta:rate=2000,requests=60,slo=200ms,quota=0.5"
	$(GO) run ./cmd/dynnbench -exp fig10 -train 200 -test 40 -epochs 4
	$(GO) run ./cmd/dynnbench -exp clustersweep -train 200 -test 40 -epochs 4 \
		-clusterjson cluster-sweep.json

# The tier-1 gate: build, vet (also as arm64), formatting, project lint,
# full tests, and the race pass over the concurrent packages.
check: build vet vet-arm64 fmt lint test race
	@echo "check: OK"
