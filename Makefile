GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race chaos chaos-ssd chaos-rebuild check mutate fuzz cover bench-harness bench-gate bench-layers obs-test shard-test qos-test lsraid-test ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race coverage on the packages with concurrency-sensitive state
# (fault injection, cache core, array repair paths), the harness's
# parallel fan-out runner and its determinism tests, and the
# fault-injection package (crash checker and chaos harness, whose
# schedules fan out across workers).
race:
	$(GO) test -race ./internal/blockdev/ ./internal/core/ ./internal/raid/
	$(GO) test -race -run 'FanOut|Deterministic|ParallelismKnob' ./internal/harness/
	$(GO) test -race -short -timeout 20m ./internal/check/ ./internal/model/

# Full chaos run: randomized seeded fault schedules with end-to-end
# verification; non-zero exit on any violation.
chaos:
	$(GO) run ./cmd/kddchaos

# Whole-SSD failover chaos plans (fail-stop kill, kill mid-clean, breaker
# storm, reattach-then-rekill) under the race detector.
chaos-ssd:
	$(GO) test -race -run 'TestChaosSSD' ./internal/check/

# Rebuild-window chaos plans (member kill with a hot spare, power losses
# inside the rebuild window, second member kill mid-window on RAID-6)
# under the race detector.
chaos-rebuild:
	$(GO) test -race -run 'TestChaosRebuild' ./internal/check/

# Model-based crash-consistency checker, deterministic CI mode: every
# crash point and media-fault site enumerated from the profile trace is
# explored for two fixed seeds; non-zero exit on any violation.
check:
	$(GO) run ./cmd/kddcheck -ci

# Mutation self-test: the kddbug build tag compiles in a DEZ
# log-before-durable ordering bug; the checker must catch it, proving the
# crash exploration has teeth.
mutate:
	$(GO) test -tags kddbug -run TestMutationCaught -v ./internal/check/

# Native Go fuzzing over the trace parsers and metadata-log decoders,
# $(FUZZTIME) per target (one target per invocation, as go test requires).
fuzz:
	$(GO) test -fuzz '^FuzzParseSPC$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz '^FuzzParseMSR$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz '^FuzzParseUniform$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz '^FuzzEntryDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/metalog/
	$(GO) test -fuzz '^FuzzPageDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/metalog/
	$(GO) test -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/obs/
	$(GO) test -fuzz '^FuzzParseTenants$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/qos/
	$(GO) test -fuzz '^FuzzLSRaidSegmentDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/lsraid/

# Observability battery: obs unit/property tests, golden trace and
# metrics artifacts, and the cross-width determinism contract — all
# under the race detector.
obs-test:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'Obs|TraceProperties|PhaseArtifacts|PhaseBreakdown' ./internal/harness/

# Sharded data plane battery: the cross-shard determinism contract
# (byte-identical output at shard counts 1/2/4/8, coalescing on and off)
# under the race detector at several test-parallelism levels, plus the
# routing/digest property tests, the open-loop generator, and the
# sharded crash sweep with interleaved batches in flight.
shard-test:
	$(GO) test -race -parallel 1 -count=1 -run 'TestDeterministic' ./internal/shard/
	$(GO) test -race -parallel 4 -count=1 -run 'TestDeterministic' ./internal/shard/
	$(GO) test -race -parallel 16 -count=1 -run 'TestDeterministic' ./internal/shard/
	$(GO) test -race ./internal/shard/ ./internal/sched/ ./internal/workload/
	$(GO) run ./cmd/kddcheck -ci -shard

# Multi-tenant QoS battery: token-bucket conservation, WFQ fairness and
# degradation-ladder property tests, the noisy-neighbor isolation proof
# (victim p99 within 2x of its aggressor-free baseline), its
# byte-identical-output determinism contract at several test-parallelism
# levels, and the lane-kill chaos plan — all under the race detector.
qos-test:
	$(GO) test -race ./internal/qos/
	$(GO) test -race -parallel 1 -count=1 -run 'TestDeterministicNoisy' ./internal/harness/
	$(GO) test -race -parallel 4 -count=1 -run 'TestDeterministicNoisy' ./internal/harness/
	$(GO) test -race -parallel 16 -count=1 -run 'TestDeterministicNoisy' ./internal/harness/
	$(GO) test -race -run 'TestNoisyNeighborIsolation' ./internal/harness/
	$(GO) test -race -run 'TestChaosLaneKill' ./internal/check/

# Log-structured backend battery: lsraid unit and property tests (GC
# liveness, crash+replay over every enumerated torn-write site, segment
# accounting), the kdd-vs-lsraid differential trace battery at FanOut
# widths 1/4/16 (byte-identical reads, equal engine digests at flush
# barriers), and the checker's full crash-site sweeps (single-core and
# sharded) on the lsraid backend — all under the race detector.
lsraid-test:
	$(GO) test -race ./internal/lsraid/
	$(GO) test -race -run 'TestDifferentialBackends' -timeout 20m ./internal/harness/
	$(GO) run ./cmd/kddcheck -ci -backend lsraid

# Coverage ratchet: total statement coverage may not drop more than 0.5
# points below the committed baseline in COVERAGE.txt. Raise the baseline
# when coverage genuinely improves.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	base=$$(cat COVERAGE.txt); \
	echo "total coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { if (t + 0.5 < b) { \
		print "FAIL: coverage " t "% is more than 0.5 points below baseline " b "%"; exit 1 } }'

# Serial vs parallel wall-clock of the experiment harness; asserts the
# outputs are byte-identical and appends one entry to the
# BENCH_harness.json trajectory.
bench-harness:
	$(GO) run ./cmd/harnessbench -scale $(or $(BENCH_SCALE),0.01) -o BENCH_harness.json

# Perf gate: same measurement, but fail if traced observability overhead
# exceeds its budget or an experiment's serial wall clock regresses
# sharply against the last comparable trajectory entry.
bench-gate:
	$(GO) run ./cmd/harnessbench -scale $(or $(BENCH_SCALE),0.01) -o BENCH_harness.json -gate

# Per-layer micro-benchmarks (ns/op, allocs/op): the cache frame's
# recency lists, the metadata log, RAID parity, delta codecs, the FTL,
# span recording, the disk seek curve, NVRAM delta staging and the fault
# injector's pass-through. BENCHTIME=1x runs each once as a
# compile-and-run smoke.
LAYER_PKGS = ./internal/cache/ ./internal/metalog/ ./internal/raid/ ./internal/delta/ ./internal/ssd/ ./internal/obs/ ./internal/hdd/ ./internal/nvram/ ./internal/blockdev/
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem $(if $(BENCHTIME),-benchtime $(BENCHTIME)) $(LAYER_PKGS)

ci: vet build test race obs-test shard-test qos-test lsraid-test chaos-ssd chaos-rebuild check mutate cover bench-gate

clean:
	$(GO) clean ./...
	rm -f BENCH_harness.json coverage.out
