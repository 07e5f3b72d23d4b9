# Tier-1 verification plus the allocator benchmark smoke, per ROADMAP.md.

GO ?= go

.PHONY: all build cross fmt vet lint test procs race bench-smoke bench perf perf-aa cover fuzz-smoke check

all: check

build:
	$(GO) build ./...

# The OS-specific halves of the real data path (dirstore_linux.go /
# dirstore_other.go) must both keep building. bench/ reads rusage, so
# the Windows pass leaves it out. No downloads: the module has no
# dependencies.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) build ./internal/... ./cmd/...

# gofmt drift fails the build. The fixtures under testdata/ are exempt:
# some carry `// want` comments gofmt would realign.
fmt:
	@out=$$(gofmt -l . | grep -v /testdata/); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# vet's copylocks pass is what enforces "locks are never copied"
# (DESIGN.md §10); internal/lint's TestVetCatchesCopiedLock pins that it
# still catches an injected copy.
vet:
	$(GO) vet ./...

# esglint: the repo's own determinism / virtual-time analyzers
# (internal/lint, DESIGN.md §10). Must exit 0 on the whole tree.
lint:
	$(GO) run ./cmd/esglint ./...

# The virtual-time packages get an explicit five-minute timeout: their
# tests finish in well under a second, and the one way they run long is a
# self-deadlock (a goroutine parked with nobody left to advance the
# clock), which should fail with its goroutine dump in minutes, not at
# go test's default ten. The other packages keep the default.
VT_PKGS = ./internal/simnet/... ./internal/vtime/...
OTHER_PKGS = $$($(GO) list ./... | grep -v -e /internal/simnet -e /internal/vtime)

test:
	$(GO) test -timeout 5m $(VT_PKGS)
	$(GO) test $(OTHER_PKGS)

# The equal-seed oracle across core counts (DESIGN.md §13): each
# TestEqualSeed row replays its run at GOMAXPROCS=1 against one at each P
# below and compares the full fingerprints, and the TestWorkCounts* pins
# hold at each P. It runs before race so a cross-P break shows without
# the race detector's noise.
procs:
	for p in 1 2 4 8; do \
		GOMAXPROCS=$$p $(GO) test -count=1 -v -run 'TestEqualSeed|TestWorkCounts' ./internal/experiments || exit 1; \
	done

race:
	$(GO) test -race -timeout 5m $(VT_PKGS)
	$(GO) test -race $(OTHER_PKGS)

# One iteration of the simnet microbenchmarks (the allocator kernel
# alone, the per-event recompute path, and a long flow's window growth
# with its core events per op), a simulated session's allocations, the
# event core's cost per handler event and a managed goroutine's cost per
# park/wake hand-off — proves the benchmark harness itself still
# compiles and runs, without paying for full timing.
bench-smoke:
	$(GO) test ./internal/simnet/ -run '^$$' -bench '^Benchmark(Allocate|Recompute|LongFlowGrowth)$$' -benchtime=1x
	$(GO) test ./internal/gridftp/ -run '^$$' -bench '^BenchmarkSimSession$$' -benchtime=1x
	$(GO) test ./internal/vtime/ -run '^$$' -bench '^Benchmark(HandlerEvent|ParkWake)$$' -benchtime=1x

# Every Go benchmark once (allocator, event core, sessions, the E2E
# request path); the paper's tables and figures are cmd/esgbench's.
bench:
	$(GO) test -bench . -benchtime=1x ./...

# esgperf, the benchmark behind BENCHMARK.json (bench/README.md): the
# gated pass over all six workloads, and the A/A check of its bounds.
perf:
	bash bench/run.sh

perf-aa:
	bash bench/run.sh -aa 5

# Statement-coverage floor gate over internal/ (see coverage-floors.txt).
cover:
	./scripts/cover.sh

# Ten seconds of live fuzzing per fuzz target, on top of the checked-in
# corpora that every plain `go test` run already replays.
fuzz-smoke:
	$(GO) test -fuzz=FuzzControlChannel -fuzztime=10s -run '^$$' ./internal/gridftp/
	$(GO) test -fuzz=FuzzModeEBlocks -fuzztime=10s -run '^$$' ./internal/gridftp/
	$(GO) test -fuzz=FuzzFilter -fuzztime=10s -run '^$$' ./internal/ldapd/

check: build cross fmt vet lint procs race bench-smoke fuzz-smoke
