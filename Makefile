GO ?= go

.PHONY: all build test race vet bench bench-all bench-scale bench-check cover cover-check chaos goldens verify repro smoke smoke-cloudsim smoke-evasion smoke-perfbench fuzz-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l .

test:
	$(GO) test ./...

# Run the test suite under the race detector (the experiment engine fans
# detection runs out over a worker pool; this keeps it provably race-free).
race:
	$(GO) test -race ./...

# Record the PR's benchmark trajectory BENCH_PR$(BENCH_PR).json. The root
# figure benchmarks run with fixed iteration counts (they seed each iteration
# separately, so time-based -benchtime can step onto seeds outside the
# profiled regime); the hot-path microbenchmarks in feed/detect/server run
# with the default time budget for stable ns/op. When a scale run has left
# bench_scale.txt behind (make bench-scale), its sustained-throughput lines
# are merged into the same trajectory.
BENCH_PR ?= 10
BENCH_FIGURES := Table1Defaults|Fig|Sec32FalseAlarmRates|Ablation
BENCH_MICRO := MovingAveragerPush|EWMAPush|FFT|PeriodEstimat|ACFDirect|KSStatistic|KSTestObserve|CacheAccess|ModelSample|SDSObserve|CUSUMObserve|TimeFragObserve|EWMAVarObserve|StrategyIntensity
# The ns-gated microbenchmarks record -count=3; benchjson keeps the
# fastest run of each (shared-host interference is one-sided, so the
# minimum is the low-noise estimator the gate should compare).
bench:
	$(GO) test -run=NONE -bench='$(BENCH_FIGURES)' -benchmem -benchtime=10x . | tee bench_output.txt
	$(GO) test -run=NONE -bench='$(BENCH_MICRO)' -benchmem -count=3 . | tee -a bench_output.txt
	$(GO) test -run=NONE -bench=. -benchmem -count=3 ./internal/feed ./internal/detect ./internal/server | tee -a bench_output.txt
	$(GO) test -run=NONE -bench='BenchmarkCloud' -benchmem -benchtime=1x -count=3 ./internal/cloudsim | tee -a bench_output.txt
	$(GO) test -run=NONE -bench='BlockModelStep' -benchmem -count=3 ./internal/cloudsim | tee -a bench_output.txt
	$(GO) run ./cmd/benchjson -o BENCH_PR$(BENCH_PR).json bench_output.txt $(wildcard bench_scale.txt)

# The ingest scale runs: the 10k-stream throughput passes (binary + CSV
# baseline) and the 100k-stream correctness run (bounded-inflight, 2 load
# processes, alarm parity against a single-process reference); appends the
# sustained samples/sec lines to bench_scale.txt for `make bench`.
bench-scale:
	./scripts/scale_sdsload.sh

# Gate the newest trajectory against the previous one: any allocs/op
# increase, >10% ns/op regression on the tracked hot paths, or >10%
# samples/sec drop on the recorded scale runs, fails. When the only
# violations are wall-clock ones, scripts/bench_ab.sh gets the final say:
# it re-benchmarks the flagged names under the baseline commit's code and
# the working tree interleaved on the current machine, so cross-session
# machine drift (which moves non-uniformly across benchmark classes) can
# be told apart from a genuine code regression.
bench-check:
	@set -- $$(ls BENCH_PR*.json 2>/dev/null | sort -V); \
	if [ $$# -lt 2 ]; then echo "bench-check: fewer than two trajectories, nothing to gate"; exit 0; fi; \
	while [ $$# -gt 2 ]; do shift; done; \
	$(GO) run ./cmd/benchdiff -old "$$1" -new "$$2" -fail-list bench_fails.txt \
		|| ./scripts/bench_ab.sh "$$1" bench_fails.txt

# Benchmark everything (slower; no JSON emission).
bench-all:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Enforce the statement-coverage floor (CI fails below it). The floor is a
# ratchet: raise it when coverage grows, never lower it to admit a regression.
COVER_FLOOR := 70.0
cover-check:
	$(GO) test -coverprofile=cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{sub(/%/,"",$$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }'

# The fault-injection suite under the race detector: deterministic chaos
# schedules against the detection server (zero-loss drain, quarantine,
# resume, idle eviction) plus the fault layer's own tests and the sdsload
# client's failure-path tests.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject ./internal/server ./cmd/sdsload

# Regenerate every golden fixture (conformance transcripts, figure walk-
# throughs, CLI outputs). Only packages that import internal/golden register
# the -update flag, so the target lists them explicitly.
goldens:
	$(GO) test -count=1 \
		./cmd/evaluate ./cmd/sensitivity ./cmd/detectd \
		./internal/server ./internal/experiment -update

# Verify every headline claim of the paper (PASS/FAIL, nonzero exit on FAIL).
verify:
	$(GO) run ./cmd/report

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
# evaluate and sensitivity fan their run grids out over all CPUs by default
# (-parallel 0); results are bit-identical at any worker count.
repro:
	$(GO) run ./cmd/measure -all -intervals 20
	$(GO) run ./cmd/evaluate -all -runs 20 -parallel 0
	$(GO) run ./cmd/sensitivity -all -runs 10 -parallel 0

# End-to-end smoke of the sdsd deployment path: launch the server, replay
# attacked VM streams at it with sdsload, assert zero loss + alarms + drain.
smoke:
	./scripts/smoke_sdsd.sh

# End-to-end smoke of the datacenter simulation: build the cloudsim CLI,
# compare mitigation policies on a small cluster, assert a quarantine is
# scored and the JSON output is deterministic across invocations.
smoke-cloudsim:
	./scripts/smoke_cloudsim.sh

# The evasion-margin grid: run the reduced tournament through the evaluate
# CLI at two worker counts and assert byte-identical JSON (the determinism
# half of the golden fixtures' promise).
smoke-evasion:
	./scripts/smoke_evasion.sh

# Run the repository benchmark, not just compile it: every perfbench
# workload for one measured second, each required to report a checked run
# with no failed operations.
smoke-perfbench:
	./scripts/smoke_perfbench.sh

# Short fuzz pass over the feed parsers — CSV and the binary frame codec —
# plus the evasive-schedule composition (Intensity/MeanIntensity must stay
# finite, clamped and loop-free for arbitrary strategy knobs; one fuzzer
# counterexample is already pinned in testdata/fuzz).
fuzz-smoke:
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzParseLine -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzReader -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzRoundTrip -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzBinReader -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzBinRoundTrip -fuzztime=5s
	$(GO) test ./internal/attack -run=NONE -fuzz=FuzzStrategyIntensity -fuzztime=5s

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_scale.txt
