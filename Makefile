GO ?= go

# COVER_FLOOR is the minimum total statement coverage `make cover`
# accepts (CI fails below it). Measured 88.1% when the gate was added;
# the floor leaves headroom for legitimately hard-to-cover glue without
# letting coverage rot unnoticed.
COVER_FLOOR ?= 85

.PHONY: verify build test race vet docvet bench-test bench bench-smoke bench-json bench-gate fuzz-smoke cluster-smoke server-smoke adapt-smoke cover clean

# verify is the tier-1 gate: everything CI runs, from a clean checkout.
verify: vet build race bench-test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite (the benchmark's build
# directory aside).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-test compiles and tests the benchmark of BENCHMARK.json. bench/
# is a module of its own, which ./... does not reach: its unit tests and
# the -scale tiny smoke (wire digests ≡ in-process, < 10 s).
bench-test:
	cd bench && $(GO) test ./...

# bench runs the paper-artifact benchmarks on reduced grids.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$'

# bench-smoke runs every benchmark in every package for one iteration:
# a CI gate that catches benchmark bit-rot and API breakage in cmd/ and
# examples/ without paying for real measurements.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-json runs the standing perf scenario matrix at smoke scale,
# emits the machine-readable BENCH artifact, and validates that it
# parses against the versioned schema. Compare against a committed
# baseline with: go run ./cmd/sssjbench -exp perf -baseline BENCH_PR8.json
bench-json:
	$(GO) run ./cmd/sssjbench -exp perf -scale 0.1 -budget 5s -json BENCH.json
	$(GO) run ./cmd/sssjbench -checkjson BENCH.json

# bench-gate is the CI regression wall: it measures the full scenario
# matrix at the committed baseline's scale and seed, then fails on a
# throughput drop past -regress, any objects/item growth past
# -allocregress, a pair-count mismatch (same stream ⇒ same pairs), or a
# scenario that vanished. Refresh the baseline by committing a new
# BENCH_PR8.json from `go run ./cmd/sssjbench -exp perf -scale 0.25 -json BENCH_PR8.json`.
bench-gate:
	$(GO) run ./cmd/sssjbench -exp perf -scale 0.25 -seed 1 -budget 10s \
		-json BENCH.json -baseline BENCH_PR8.json
	$(GO) run ./cmd/sssjbench -checkjson BENCH.json

# fuzz-smoke runs the metamorphic fuzz targets — foreign-vs-self-join
# parity, reorder-vs-sorted parity, cluster-vs-sequential parity (over
# loopback servers, and in process: a shard-engine group against the
# sequential engine with each worker's own match set checked),
# block-vs-scalar kernel parity, admission window ≡ scalar predicate,
# adaptive-vs-static parity (the self-tuning layer's output-invariance
# contract), the multi-tenant session protocol (random
# SESSION/ADD/STATS interleavings against a live server, per-session
# accounting as the oracle), the binary item frames (arbitrary bytes
# behind the frame marker: a typed reply or a clean close, bounded
# allocation), and the dataset readers (binary and text files: any input
# parses or fails with an error, never a panic), and checkpoint restore
# (arbitrary bytes after SaveFull seeds of every kind: a typed error or
# an index that accepts items, never a panic) — for a short burst each
# on top of their committed seed corpora (testdata/fuzz/…): a CI pass
# that keeps hunting for oracle violations without the cost of a long
# fuzzing campaign. `go test -fuzz` takes one target per run, hence one
# command of $(FUZZTIME) each. FuzzShardParity and FuzzCheckpointLoad
# take a byte string, so minimizing each new input under the default
# 60 s budget would eat the whole burst; they get 1 s.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzForeignSelfParity -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzReorderParity -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzClusterParity -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzShardParity -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/index/streaming
	$(GO) test -run '^$$' -fuzz FuzzKernelParity -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzAdmitWindow -fuzztime $(FUZZTIME) ./internal/apss
	$(GO) test -run '^$$' -fuzz FuzzAdaptParity -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzSessionProtocol -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzItemFrame -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzBinaryReader -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzTextReader -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/index/streaming

# cluster-smoke is the process-level cluster parity check: it builds the
# real binaries, boots 2 sssjd shard workers + 1 sssjc coordinator (plus
# a single-process reference daemon) as separate OS processes on
# loopback, streams the self-join and foreign workloads through the
# coordinator, and fails unless the match sets are bit-identical to the
# single process. Runs in CI's test job.
cluster-smoke:
	$(GO) build -o bin/sssjd ./cmd/sssjd
	$(GO) build -o bin/sssjc ./cmd/sssjc
	$(GO) run ./scripts/clustersmoke -sssjd bin/sssjd -sssjc bin/sssjc

# server-smoke is the process-level multi-tenant check: it boots one
# sssjd with /metrics enabled, creates 3 sessions with different
# thresholds and join modes, streams a deterministic workload through
# each, scrapes the Prometheus endpoint, live-migrates one session to a
# second daemon mid-stream, and fails unless every session's match set
# is bit-identical to a dedicated single-tenant daemon's. Runs in CI's
# test job alongside cluster-smoke.
server-smoke:
	$(GO) build -o bin/sssjd ./cmd/sssjd
	$(GO) run ./scripts/serversmoke -sssjd bin/sssjd

# adapt-smoke is the self-tuning convergence check: the auto-selector
# (plus online re-ranking) over the RCV1 and Tweets stream shapes must
# report exactly the static reference's match set, promote at most its
# structural maximum of two engine switches (the monotone ladder cannot
# flap), and actually engage the re-ranker. Runs in CI's test job.
adapt-smoke:
	$(GO) run ./scripts/adaptsmoke

# cover enforces the statement-coverage floor and leaves coverage.out
# for the CI artifact upload.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { if (t+0 < f+0) { print "FAIL: coverage below floor"; exit 1 } }'

# docvet fails if any exported identifier in the public sssj package
# lacks a doc comment (also runs as part of `make test`).
docvet:
	$(GO) test -run TestPublicDocComments .

clean:
	$(GO) clean ./...
