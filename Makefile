GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet lint test build-inline race bench bench-go bench-guard flame fuzz-smoke chaos cluster-chaos leak sched-check overload tier1 clean

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the domain gate: go vet plus esplint, the in-tree analyzer
# suite that proves the replay/plane/fault contracts (complete pooled
# resets, an immutable workload plane, a total error taxonomy,
# wrap-safe sentinel matching). Any diagnostic fails the build; see
# DESIGN.md §12 for the annotation grammar that governs each check.
lint: vet
	$(GO) run ./cmd/esplint ./...

test:
	$(GO) test ./...

# build-inline reruns the golden corpus and the internal/sim workload
# tests, derived builds included, at GOMAXPROCS=1. Session builds
# generate and copy their streams concurrently on a multi-core host;
# this keeps the inline path a one-core host takes covered on
# multi-core runners too.
build-inline:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestGolden' .
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestWorkload|TestBuild|TestMaterialize|TestDerived' ./internal/sim

race:
	$(GO) test -race ./...

# bench measures the sweep engine (warm two-plane replay vs
# rebuild-per-cell) on the Figure 9 grid and records ns/cell,
# steady-state allocs/cell, cells/sec and the speedup factor in
# BENCH_PR8.json.
bench:
	$(GO) run ./cmd/espperf -out BENCH_PR8.json

# bench-go runs the full Go benchmark suite (per-figure regeneration
# plus raw simulator throughput).
bench-go:
	$(GO) test -bench=. -benchmem .

# bench-guard re-measures sweep throughput and fails when the two-plane
# engine's cells/sec fell more than 20% below the committed baseline,
# when a warm replay cell exceeds the hard allocation ceiling (the
# hot path is allocation-zero; the ceiling of 40 leaves room only for
# result assembly), when the fault-free recovery stack (retries +
# breakers, no injector) costs more than 5% of reuse throughput, or
# when the tenant fair-queue admission stack costs more than 2% of it
# with a single unthrottled tenant.
bench-guard:
	$(GO) run ./cmd/espperf -out - -guard BENCH_PR8.json -maxloss 0.20 -maxallocs 40 -maxoverhead 0.05

# flame captures a CPU profile of the measured sweeps and renders the
# top of the replay hot path; pass PPROF_FLAGS=-http=:8080 for the
# interactive flame graph.
flame:
	$(GO) run ./cmd/espperf -out - -cpuprofile espperf.cpu.pprof > /dev/null
	$(GO) tool pprof $(PPROF_FLAGS) -top -nodecount=20 espperf.cpu.pprof

# chaos is the seeded fault-injection soak under the race detector: a
# sweep with injected panics, stalls, and build failures on >=25% of its
# cells must return every cell, match the golden corpus bit-for-bit on
# recovered cells, trip and honor circuit breakers, and resume from its
# journal after a mid-sweep kill with a torn tail write.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestDrainWaits' ./internal/serve -v

# leak asserts the admission machinery (queue tickets, worker slots,
# queue-depth gauge) drains to zero after every request path, including
# rejections, cancellations, timeouts, and conflicts.
leak:
	$(GO) test -race -count=1 -run 'TestAdmissionNoLeak|TestErrorPathsNoLeak' ./internal/serve -v

# cluster-chaos is the fleet-level soak under the race detector: a
# seeded sharded sweep over three in-process workers, one killed
# mid-shard and one quarantined behind injected network faults, must
# complete via journal handoff bit-identical to the single-node golden
# corpus, refuse digest-mismatched journals, and report every
# quarantine, reschedule, and steal on the coordinator's /metrics. The
# breaker interleaving it depends on — a probe that passed before a
# trip must not reopen the node — is pinned deterministically too.
cluster-chaos:
	$(GO) test -race -count=1 -run 'TestClusterChaos|TestHandoffDigestMismatch|TestProbeQuarantines' ./internal/cluster -v
	$(GO) test -race -count=1 -run 'TestStaleProbeKeepsBreakerOpen' ./internal/fault -v

# fuzz-smoke gives every fuzz target a short adversarial shake on each
# gate run (FUZZTIME per target); longer campaigns raise FUZZTIME.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadFile -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRunRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerConfig -fuzztime=$(FUZZTIME) ./internal/eventq
	$(GO) test -run='^$$' -fuzz=FuzzCacheMatchesReference -fuzztime=$(FUZZTIME) ./internal/mem
	$(GO) test -run='^$$' -fuzz=FuzzPredictorMatchesReference -fuzztime=$(FUZZTIME) ./internal/branch

# sched-check proves the scheduling dimension under the race detector:
# the scheduler property suite (permutation, time monotonicity, strict
# priority, EDF choice, untimed FIFO degeneration, cross-goroutine
# determinism), the metamorphic scheduler laws (deadline-aware policies
# never miss more than FIFO, slack monotonicity, ESP ordering under
# every policy), the scheduled golden cells, and the scheduled
# zero-allocation replay contract.
sched-check:
	$(GO) test -race -count=1 -run 'TestSched|TestScheduleIsPermutation|TestScheduleTimesConsistent|TestStrictPriorityNoInversions|TestEDFPicksEarliestDeadline|TestUntimedDegeneratesToFIFO|TestScheduleDeterministic|TestSchedByNameRoundTrip' ./internal/eventq -v
	$(GO) test -race -count=1 -run 'TestInvariantSchedulerDeadlines|TestInvariantSlackMonotone|TestInvariantESPOrderingScheduled|TestGolden' . -v
	$(GO) test -count=1 -run 'TestReplayAllocFreeScheduled' ./internal/sim -v

# overload proves tenant-scale robustness under the race detector: DRR
# fairness under saturation (completed-cell shares track tenant
# weights), deadline-aware shedding (an expired sweep answers partial
# results fast with zero simulation), per-tenant quotas with distinct
# HTTP statuses, memory-pressure brownout with hysteresis recovery,
# every refusal's status and body error_kind on espd and espcoord, and
# the fleet-level chaos — a hedged straggler merging bit-identically, a
# greedy tenant flood that cannot starve a victim on a degraded fleet,
# and a worker's refusal keeping its kind in the merged grid.
overload:
	$(GO) test -race -count=1 ./internal/tenantq -v
	$(GO) test -race -count=1 -run 'TestTenantFairnessUnderSaturation|TestSweepExpiredDeadlineFastPath|TestRunDeadlineShedOnEvidence|TestTenantQuotaAndHeader|TestBrownoutDegradationAndRecovery|TestRefusalBodiesCarryKind' ./internal/serve -v
	$(GO) test -race -count=1 -run 'TestHedgedStragglerParity|TestGreedyTenantFloodDegradedFleet|TestWorkerRefusalKeepsKind' ./internal/cluster -v

# tier1 is the robustness gate: everything must be green before merge.
# race already runs the chaos soak and leak tests (they live in the
# normal test set); leak re-runs them uncached so the gate cannot be
# satisfied by a stale pass. lint subsumes vet and adds the domain
# analyzers, so a contract violation fails the gate before any test runs.
tier1: lint build race build-inline fuzz-smoke leak cluster-chaos sched-check overload

clean:
	$(GO) clean ./...
