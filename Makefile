# The tier-1 gate runs the stock command, `go test ./...`, with Go's
# default parallel package execution. It used to need `-p 1`: a task's
# heartbeat goroutine starved by another package's test binary got a
# *live* task declared dead (and then crashed for good by the recovery).
# A task is now declared failed only when it has crashed, so a slow
# machine makes tests slow, not wrong (see README "Testing").

GO ?= go

.PHONY: build check fmt-check no-gob vet lint lint-json race bench bench-compare bench-micro bench-smoke bench-json bench-matrix matrix-smoke fault-sweep fault-sweep-unaligned fault-pinned

build:
	$(GO) build ./...

# check is the tier-1 gate: everything must build and pass. bench/ is a
# module of its own that calls into internal/ (see bench/README.md), so it
# is vetted and tested here too: an API change that would stop the
# repository's benchmark from building fails the gate, not the next PR's
# measurement.
check: build fmt-check no-gob
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# no-gob keeps encoding/gob out of everything the engine and the benchmark
# link: the codec registry is the only serialization tier (DESIGN.md
# "Codec tier"). Test files may import it as an oracle; `go list -deps`
# does not follow them.
no-gob:
	! $(GO) list -deps ./... | grep -qx encoding/gob
	cd bench && ! $(GO) list -deps ./... | grep -qx encoding/gob

# fmt-check lists every Go file of the root module and bench/ that gofmt
# would change, and fails if there is one. The analyzers' testdata/ trees
# are fixtures, not code, and are left alone.
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the repo's own go/analysis suite (clonos-vet; see DESIGN.md
# "Static invariants"): interprocedural buffer ownership, main-thread
# confinement, snapshot completeness, determinism taint, crash-point
# bookkeeping and no-sleep-poll test hygiene. Test files are analyzed
# too.
lint:
	$(GO) run ./cmd/clonos-vet ./...

# lint-json is the machine-readable variant CI uploads as an artifact on
# failure: the same findings as `make lint` written to findings.json as
# the JSON array documented in internal/lint/findings (human-readable
# lines still go to stderr; exit status is unchanged).
lint-json:
	$(GO) run ./cmd/clonos-vet -json ./... > findings.json

# Packages whose tests drive full jobs with scaled checkpoint timings
# and wall-clock budgets (sustained-load generators, stall budgets).
# Under the race detector's 5-20x slowdown those budgets run out when
# other test binaries compete for the machine, so only these run
# serially; everything else races in parallel. (This replaced
# a blanket `-p 1`, which serialized four dozen packages to protect
# five.)
RACE_SERIAL := . ./internal/job ./internal/nexmark ./internal/synthetic ./internal/harness ./examples/...
RACE_PARALLEL := $(shell $(GO) list ./... | grep -v -e '^clonos$$' -e '/internal/job$$' -e '/internal/nexmark$$' -e '/internal/synthetic$$' -e '/internal/harness$$' -e '/examples/')

# race is the CI lint+race gate: go vet across the repo, then the full
# test suite under the race detector. The detector's 5-20x slowdown
# needs generous test timeouts on constrained hosts.
race: vet
	$(GO) test -race -timeout 20m $(RACE_PARALLEL)
	$(GO) test -race -p 1 -timeout 20m $(RACE_SERIAL)

# bench runs the repository's benchmark (BENCHMARK.json): every workload,
# untraced then traced, table on stdout and bench/out/set.json. For one
# workload or more runs call bench/run.sh itself (see bench/README.md).
bench:
	bash bench/run.sh

# bench-compare holds two set.json files (kept from two `make bench` runs)
# against each other, cell by cell, using the bounds in BENCHMARK.json:
# `make bench-compare A=parent.json B=change.json`.
bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# bench-micro runs the go-test micro-benchmarks of every package.
bench-micro:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# bench-smoke compiles and runs every benchmark exactly once so benches
# cannot bit-rot (CI runs this; it is not a measurement). CI pairs it
# with the hot-path allocation budgets and the alignment-stall budget
# (TestUnalignedStallBudget: at AlignmentBudget 0 overloaded
# checkpoints must never gate a channel).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -p 1 ./...

# bench-json refreshes the hot-path trajectory baseline. The committed
# BENCH_hotpath.json lets future PRs diff throughput, allocs/elem, and
# the residual copy fractions of the zero-copy pipeline.
bench-json:
	$(GO) run ./cmd/clonos-hotpath -out BENCH_hotpath.json

# bench-matrix refreshes the committed recovery-under-load baseline:
# the full load x state-size x failure-type grid with recovery time and
# output-latency p50/p99 per cell (see EXPERIMENTS.md "Recovery matrix").
bench-matrix:
	$(GO) run ./cmd/clonos-bench -experiment matrix -matrix-out BENCH_recovery_matrix.json

# matrix-smoke is the CI gate: the small 2x2x2x2 grid (loads x state
# sizes x {single, alignment} x {aligned, unaligned} checkpoint modes),
# schema-validated and regression-checked against the committed
# baseline. Up to 2 of the compared cells may flip settled->unsettled
# (shared runners are noisy); more than that fails, as does the grid's
# MEDIAN recovery or detection time moving past 3x + 1s — per-cell
# ratios flap at sub-second baselines, medians only move when every
# cell slows down.
matrix-smoke:
	$(GO) run ./cmd/clonos-bench -matrix-validate BENCH_recovery_matrix.json
	$(GO) run ./cmd/clonos-bench -experiment matrix -matrix-grid smoke \
		-matrix-out matrix_smoke.json \
		-matrix-baseline BENCH_recovery_matrix.json \
		-matrix-max-regress 3 -matrix-max-unsettled 2

# fault-sweep is the bounded deterministic chaos gate: one schedule per
# registered crash point (including the second-failure-during-recovery
# windows), a seeded fuzz batch, and the pinned regression schedules.
# Every schedule runs with the audit plane armed and asserts zero
# violations (false-positive pin); the TestAudit* divergence-injection
# runs prove the detectors actually fire on seeded corruption. Failing
# subtests log a one-line replayable schedule string and park their
# flight-recorder trace under $$TMPDIR/clonos-fault-artifacts.
fault-sweep:
	$(GO) test -count=1 ./internal/faultinject
	$(GO) test -run 'TestFaultSweep|TestFaultFuzz|TestCrashScheduleRegressions|TestAudit' -count=1 -p 1 -timeout 10m ./internal/job

# fault-sweep-unaligned is the same gate with every schedule forced
# through unaligned checkpointing (CLONOS_FAULT_UNALIGNED=1): the sweep,
# fuzz batch, and pinned regressions all run with in-flight capture
# armed and the audit plane asserting zero violations, so a
# capture/seal/preload bug cannot hide behind the aligned default.
# Schedules naming the aligned-only points (align/blocked,
# align/complete) are skipped — those points are structurally
# unreachable when no channel is ever gated.
fault-sweep-unaligned:
	CLONOS_FAULT_UNALIGNED=1 $(GO) test -run 'TestFaultSweep|TestFaultFuzz|TestCrashScheduleRegressions|TestAudit' -count=1 -p 1 -timeout 10m ./internal/job

# fault-pinned loops the pinned double failure
# (TestCrashScheduleRegressions/upstream-dies-serving-replay:
# kill=task/loop@v2[0]#60;kill=channel/serve-replay@*) 150 times in each
# leg, aligned and CLONOS_FAULT_UNALIGNED=1, with the audit plane
# asserting zero violations on every run. One pass proves little for a
# report that came in a few runs in a hundred; at about 0.5 s a run
# aligned and 2.4 s unaligned it stays out of tier-1. The unaligned leg
# is slower because it runs the slow pipeline, whose backlog the capture
# windows need: a 600 us sleep per record in the keyed stage, about
# 1.1 ms with a 1 ms timer slack. Its 256-byte buffers are not the cost:
# at the default 8 KiB a run takes the same time (2.5 s against 2.4 s,
# 20 runs each on 2 cores) and captures about 40 messages instead of 70.
PINNED := TestCrashScheduleRegressions/upstream-dies-serving-replay$$
fault-pinned:
	$(GO) test -run '$(PINNED)' -count=150 -p 1 -timeout 20m ./internal/job
	CLONOS_FAULT_UNALIGNED=1 $(GO) test -run '$(PINNED)' -count=150 -p 1 -timeout 20m ./internal/job
