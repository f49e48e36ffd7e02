# Single source of truth for build/test/bench commands: CI invokes these
# targets, so local runs reproduce CI exactly.

GO        ?= go
BENCH_PR  ?= BENCH_pr.json
BASELINE  ?= BENCH_baseline.json
MAX_REGRESS ?= 0.25
# The one definition of the gate's measurement configs: bench, bench-gate and
# bench-baseline all expand it, so the checked-in baseline cannot drift from
# what the gate measures. -stream-bench adds the online abstractor's
# per-arrival rows at two window sizes (with a hard flat-in-the-window
# floor); -index-bench adds columnar index build-throughput and bytes/event
# rows plus the restart cost rows (IndexCold = re-parse+build, IndexOpen =
# OpenIndex on the persistent file, with a hard >= 5x open-vs-cold floor);
# -eval-bench adds the solver kernels' rows (screened constraint checks,
# cold-memo distance evaluations, beam pruning). The serving path (sessions,
# /pipeline, the shard router) is measured by bench/ instead, and its hard
# floors are tests in `go test ./...`.
BENCH_FLAGS = -table 6 -quick -stream-bench -index-bench -eval-bench
# Where `make serve` keeps the warm tier (spilled session indexes, persisted
# results); `make clean-data` wipes it.
DATA_DIR ?= gecco-data

.PHONY: build test race vet lint staticcheck fmt-check fuzz bench bench-check bench-gate bench-baseline serve examples clean-data all

all: build vet lint fmt-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/par/ ./internal/candidates/ ./internal/distance/ ./internal/constraints/ ./internal/core/ ./internal/pipeline/ ./internal/service/ ./internal/shard/ ./internal/stream/ ./internal/eventlog/ ./internal/experiments/ .

vet:
	$(GO) vet ./...

# The repository's own multichecker (internal/analysis): five analyzers
# enforcing the determinism, wall-clock, context-flow, sync.Once, and
# hot-path invariants. Built from source — no network-installed tools.
lint:
	$(GO) run ./cmd/gecco-vet ./...

# Static analysis beyond vet. CI installs the pinned version below; locally
# the target uses whatever staticcheck is on PATH and tells you how to get
# one if none is found (it does not download anything itself, so offline
# builds stay offline).
STATICCHECK         ?= staticcheck
STATICCHECK_VERSION ?= 2024.1.1
staticcheck:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:" >&2; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; \
		exit 1; }
	$(STATICCHECK) ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Fuzzing, a fixed time per target. FuzzReadXES holds the XES scanner to
# the encoding/xml decoder it replaced, FuzzDecodeEnvelope the JSON envelope
# decoder to json.Unmarshal, FuzzParseSpecs the stage-list parser to its
# round-trip properties, FuzzParseSet the constraint parser to its
# canonical text, FuzzSolveCover branch and bound and the MIP to brute
# force, FuzzReadCSV csvlog.ReadIndex to csvlog.Read, FuzzReadIndex the
# .gidx reader to its canonical rewrite, and FuzzStreamTrace the /stream
# line decoder to its events and the online abstractor to no panic.
# FuzzSolveCover and FuzzReadCSV add their seeds in code; the others keep
# their seed corpora in each package's testdata/fuzz. A short minimisation
# budget keeps a large new input from stalling the run.
fuzz:
	$(GO) test ./internal/xes -run '^$$' -fuzz '^FuzzReadXES$$' -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/pipeline -run '^$$' -fuzz '^FuzzParseSpecs$$' -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/constraints -run '^$$' -fuzz '^FuzzParseSet$$' -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/cover -run '^$$' -fuzz '^FuzzSolveCover$$' -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/csvlog -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/eventlog -run '^$$' -fuzz '^FuzzReadIndex$$' -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzStreamTrace$$' -fuzztime 30s -fuzzminimizetime 2s

# bench/ is a module of its own, so `go test ./...` never builds it: vet and
# test it on its own, offline, to catch changes to the packages it calls.
bench-check:
	cd bench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...

# Quick Table VI run with a machine-readable report (the CI artifact).
bench:
	$(GO) run ./cmd/gecco-bench $(BENCH_FLAGS) -json $(BENCH_PR)

# Bench + fail on >MAX_REGRESS wall-time regression vs the checked-in baseline.
bench-gate:
	$(GO) run ./cmd/gecco-bench $(BENCH_FLAGS) -json $(BENCH_PR) -baseline $(BASELINE) -max-regress $(MAX_REGRESS)

# Regenerate the checked-in baseline with exactly the gate's configs (run on
# the reference machine, commit the result).
bench-baseline:
	$(GO) run ./cmd/gecco-bench $(BENCH_FLAGS) -json $(BASELINE)

# Build and smoke-run every example program, so example drift fails CI
# instead of rotting silently.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

serve:
	$(GO) run ./cmd/gecco-serve -addr :8080 -data-dir $(DATA_DIR)

# Wipe the warm tier. Safe at any time: it holds only derived data (spilled
# indexes, persisted results) that the next run rebuilds on demand.
clean-data:
	rm -rf $(DATA_DIR)
