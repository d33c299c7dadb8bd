# Task entry points — CI runs exactly these targets (see
# .github/workflows/ci.yml), so a green `make ci` locally means a green
# pipeline.

GO ?= go

.PHONY: all build fmt fmt-check vet vet-cross lint test test-short race ci test-cpu cover-service cmdref cmdref-check docs-check bench bench-json bench-check bench-scaling fuzz-smoke e2e e2e-smoke e2e-case experiments-quick experiments

all: build

build:
	$(GO) build ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The same vet for a second architecture, offline: arm64 is where Go
# may fuse x*y+z into one FMA, so code that only builds or vets cleanly
# on amd64 fails here rather than on an arm64 worker.
vet-cross:
	GOARCH=arm64 $(GO) vet ./...

# Static analysis + known-vulnerability scan, mirroring the CI lint job
# (same pinned versions, so local `make lint` reproduces CI exactly).
# The tools are installed on demand into $(go env GOPATH)/bin.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4
lint:
	@command -v staticcheck >/dev/null 2>&1 || 		$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	@command -v govulncheck >/dev/null 2>&1 || 		$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	staticcheck ./...
	govulncheck ./...

# Fast failure: the short suite skips the long chain runs.
test-short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

# The sampler stack and the service on one, two and four cores, so a
# test that only holds at one GOMAXPROCS fails here (four oversubscribes
# a two-core runner, which is the point); internal/core runs the
# shared gang's spin-or-park paths both ways, internal/partition runs its
# region chains concurrently on its work-conserving scheduler
# (partition.Step), internal/mc3 runs its coupled chains concurrently
# between swaps, pkg/service drains running jobs into checkpoints, and
# its worker and coordinator run concurrent lease, heartbeat and drain
# goroutines. The service's recovery tests skip under -short, so they
# run in a second, full pass of their own.
CPU_PKGS := ./internal/model ./internal/mcmc ./internal/spec ./internal/sched ./internal/core ./internal/partition ./internal/mc3 ./pkg/parmcmc ./pkg/service ./pkg/service/worker ./pkg/service/coordinator
test-cpu:
	$(GO) test -short -cpu 1,2,4 $(CPU_PKGS)
	$(GO) test -cpu 1,2,4 -run 'Recovery|Restarted' ./pkg/service

# Full suite under the race detector (the gang, partition, (MC)³ and
# service tests exercise >1 worker, so this is the concurrency gate).
race:
	$(GO) test -race ./...

ci: fmt-check vet vet-cross build test-short test-cpu race cover-service cmdref-check docs-check

# Coverage gate for the API stack: the black-box suites must keep the
# contract (pkg/api), the client (pkg/client) and the daemon
# (pkg/service) at or above the floor — these are the layers most
# likely to grow untested handler/decoder branches. The profile lands
# in the workspace (git-ignored), so concurrent runs in different
# checkouts cannot clobber each other.
SERVICE_COVER_FLOOR := 80.0
SERVICE_COVER_PROFILE := service.cov
SERVICE_COVER_PKGS := ./pkg/api,./pkg/client,./pkg/service,./pkg/service/coordinator,./pkg/service/worker
cover-service:
	$(GO) test -coverprofile=$(SERVICE_COVER_PROFILE) -covermode=atomic \
		-coverpkg=$(SERVICE_COVER_PKGS) ./pkg/api ./pkg/client ./pkg/service ./pkg/service/coordinator ./pkg/service/worker
	@total=$$($(GO) tool cover -func=$(SERVICE_COVER_PROFILE) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "API stack coverage: $$total% (floor $(SERVICE_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(SERVICE_COVER_FLOOR)" \
		'BEGIN { if (t+0 < floor+0) { print "API stack coverage below floor"; exit 1 } }'

# The mcmcctl command reference under docs/cmdref/ is generated from
# the live command tree; cmdref-check regenerates it and fails on any
# diff, so the committed docs can never drift from the CLI.
cmdref:
	$(GO) run ./cmd/mcmcctl cmdref -o docs/cmdref

cmdref-check:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/mcmcctl cmdref -o $$tmp || exit 1; \
	if ! diff -ru docs/cmdref $$tmp; then \
		rm -rf $$tmp; \
		echo "docs/cmdref is stale: run 'make cmdref' and commit the result"; exit 1; \
	fi; \
	rm -rf $$tmp

# The hand-written docs (README, docs/architecture.md,
# docs/operations.md, test/doc/cases.md) are gated against rot: every
# backticked repo path, pkg.Symbol anchor and relative markdown link
# must resolve against the current tree, and so must every *.md file and
# repo pkg.Symbol a Go comment names. The README's Detection options
# table must list exactly the api.OptionsSpec keys. The same package
# gates code shape: one Metropolis–Hastings test, and examples that run
# every strategy through parmcmc rather than the internal strategy
# packages (see test/doccheck).
docs-check:
	$(GO) test ./test/doccheck -count=1

# Benchmark smoke run: every benchmark in the module once, with
# allocation counts. CI runs this so benchmarks can never bit-rot.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./...

# Machine-readable perf snapshot: writes BENCH_<date>.json at the repo
# root (see cmd/benchjson). Compare against BENCH_baseline.json.
bench-json:
	$(GO) run ./cmd/benchjson -benchtime 1x

# Bench regression gate: re-measure the kernel microbenchmarks and fail
# on a >15% ns/op regression or any allocs/op regression vs the
# committed BENCH_baseline.json (see cmd/benchjson -compare; the
# comparison is skipped with a warning when the baseline was recorded
# on a host with a different CPU count). The scanline span kernels are
# additionally required to be allocation-free in absolute terms
# (-zero-alloc), not merely no worse than the baseline — the /naive
# reference variants are exempt, they exist for correctness checks.
# The report goes to a fresh temporary directory, so concurrent runs in
# two checkouts cannot overwrite each other's.
bench-check:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/benchjson \
		-bench 'BenchmarkLikDelta|BenchmarkCoverMove|BenchmarkSequentialIteration|BenchmarkMoveKinds' \
		-benchtime 0.3s -count 3 -o $$tmp/BENCH_check.json \
		-zero-alloc '(BenchmarkLikDelta|BenchmarkCoverMove).*/scanline' \
		-compare BENCH_baseline.json -max-ns-regress 0.15; \
	status=$$?; rm -rf $$tmp; exit $$status

# Throughput-per-core scaling curve (see BenchmarkThroughputScaling and
# BenchmarkSamplerScaling): each benchmark runs once per GOMAXPROCS
# width and the report gains a scaling section — measured rows (ops/sec,
# speedup, parallel efficiency per core count) plus simulated rows from
# the sampler's simulated parallel machine, which are host-independent.
# CI uploads BENCH_scaling.json as a build artifact so the curve is
# inspectable per run. Widths beyond the host's core count are still
# measured — efficiency honestly collapses there (benchjson marks those
# sections hardware_saturated).
#
# The -scaling-gate floors fail the run when the speculative sampler's
# simulated end-to-end speedup drops below 1.4x at 2 procs / 1.6x at 4,
# or when measured thread-throughput scaling falls below 1.1x at 2 procs
# — the measured gate skips (loudly) on hosts with fewer cores.
SCALING_CPUS := 1,2,4
bench-scaling:
	$(GO) run ./cmd/benchjson \
		-bench 'BenchmarkThroughputScaling|BenchmarkSamplerScaling' -pkg . \
		-cpu $(SCALING_CPUS) -benchtime 0.3s -count 2 -o BENCH_scaling.json \
		-scaling-gate 'BenchmarkSamplerScaling/.*/width=adaptive@2:1.4' \
		-scaling-gate 'BenchmarkSamplerScaling/.*/width=adaptive@4:1.6' \
		-scaling-gate 'BenchmarkThroughputScaling@2:1.1:measured'

# Nightly fuzz smoke: run every Fuzz* target for FUZZ_TIME each (the
# decode fuzzers, the PGM dimension guards, and the disc+ellipse
# likelihood differentials). Any crasher fails the run and is written
# under the package's testdata/fuzz/ for triage.
FUZZ_TIME := 30s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSubmit -fuzztime=$(FUZZ_TIME) ./pkg/service
	$(GO) test -run=^$$ -fuzz=FuzzPGMDims -fuzztime=$(FUZZ_TIME) ./pkg/service
	$(GO) test -run=^$$ -fuzz=FuzzLikDeltaDifferential -fuzztime=$(FUZZ_TIME) ./internal/model

# E2E case matrix over the real binaries (catalog: test/doc/cases.md).
# e2e-smoke runs the smoke-tagged subset (what PR CI gates on);
# e2e runs the full matrix (what nightly runs); e2e-case runs one
# cataloged case by ID. Set E2E_ARTIFACTS=DIR to collect spool dirs and
# daemon logs from failing cases.
e2e-smoke:
	$(GO) test ./test/e2e -run 'TestCases|TestCatalogMatchesDoc' -count=1 -v

e2e:
	E2E_MATRIX=full $(GO) test ./test/e2e -run 'TestCases|TestCatalogMatchesDoc' -count=1 -v

e2e-case:
	@test -n "$(CASE)" || { echo "usage: make e2e-case CASE=C00103"; exit 1; }
	E2E_MATRIX=full $(GO) test ./test/e2e -run 'TestCases/$(CASE)$$' -count=1 -v

# Reproduce every paper figure (quick ≈ seconds, full ≈ minutes).
experiments-quick:
	$(GO) run ./cmd/experiments -quick

experiments:
	$(GO) run ./cmd/experiments
