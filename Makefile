# Single source of truth for build/test/bench commands: CI invokes these
# targets, so local runs reproduce CI exactly.

GO        ?= go
# The sections `make bench` runs. -stream-bench adds the online abstractor's
# per-arrival cost at two window sizes, and fails unless it is flat in the
# window. -index-bench adds the columnar index's build throughput,
# bytes/event and restart cost (a cold XES parse into the index against
# OpenIndex on the persistent file), and fails unless the open is at least
# 5x faster. -eval-bench adds the solver kernels (screened constraint
# checks, cold-memo distance evaluations, beam pruning). Only those two
# timings can fail the run: the exact work behind every row is pinned by
# TestSolverWorkCounters in `go test ./...`, and wall-clock verdicts come
# from bench/'s paired -compare, which also measures the serving path
# (sessions, /pipeline, the shard router).
BENCH_FLAGS = -table 6 -quick -stream-bench -index-bench -eval-bench
# Where `make serve` keeps the warm tier (spilled session indexes, persisted
# results); `make clean-data` wipes it.
DATA_DIR ?= gecco-data

.PHONY: build test race vet lint staticcheck fmt-check fuzz bench bench-check serve examples clean-data all

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

# Quick Table VI smoke run plus the timed sections and their two floors.
bench:
	$(GO) run ./cmd/gecco-bench $(BENCH_FLAGS)

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
