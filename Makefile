# Developer entry points. `make ci` is the gate: lint (gofmt + vet), build,
# the whole tree's tests under -race (every parity, chaos, wire, HTAP and
# monitoring suite is one of them, run once), the experiment shape
# assertions, 10 s of each native fuzz target, the benchguard-gated
# micro-benchmarks, and vet + tests of the end-to-end benchmark's module.

GO ?= go

.PHONY: all lint vet build test race experiments fuzzsmoke benchsmoke benchcompressed benchagg benchcommit benchpoint benchsoe benchbaseline benchmod bench ci

all: ci

# Formatting and static checks; fails on any gofmt diff so the wide
# refactor surface stays canonical.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The EXPERIMENTS.md shape assertions (E1..E25 tables must reproduce).
experiments:
	$(GO) test -run Experiment ./...

# Ten seconds of each native fuzz target (go test runs one -fuzz target per
# invocation): the SOE decoders, the WAL's log and checkpoint readers and
# the wire front end's two frame readers (a real connection's serve loop
# fed arbitrary bytes after the handshake; the client's DataRow decoder)
# never panic on hostile bytes and never allocate more than a constant
# times the input.
fuzzsmoke:
	$(GO) test -run xxx -fuzz 'FuzzDecodeEntry' -fuzztime 10s ./internal/soe/
	$(GO) test -run xxx -fuzz 'FuzzDecodeMessage' -fuzztime 10s ./internal/soe/
	$(GO) test -run xxx -fuzz 'FuzzReplay' -fuzztime 10s ./internal/wal/
	$(GO) test -run xxx -fuzz 'FuzzReadCheckpoint' -fuzztime 10s ./internal/wal/
	$(GO) test -run xxx -fuzz 'FuzzServerFrames' -fuzztime 10s ./internal/pgwire/
	$(GO) test -run xxx -fuzz 'FuzzDecodeDataRows' -fuzztime 10s ./internal/pgwire/

# Quick pass over the vectorized scan/aggregation micro-benchmarks, gated
# by cmd/benchguard against the committed BENCH_vectorized_baseline.json:
# any ns/op regression beyond 25% fails the target, as does a row over 10%
# above its recorded allocs/op or 25% above its recorded B/op. benchguard
# also fails if a baseline benchmark is missing from the output, so a
# crashed bench run cannot slip through the pipe as a pass.
benchsmoke:
	$(GO) test -run xxx -bench 'BenchmarkScan(Vectorized|RowAtATime)$$|BenchmarkParallelAgg' -benchtime=100x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkScan(Vectorized|RowAtATime)$$|BenchmarkParallelAgg'

# Compressed-execution micro-benchmarks: the code-valued join probe and
# the run-folding group-by against their row-at-a-time counterparts,
# gated by the same baseline file (join/group-by subset via -match).
benchcompressed:
	$(GO) test -run xxx -bench 'BenchmarkJoinDict|BenchmarkGroupByRLE' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkJoinDict|BenchmarkGroupByRLE'

# Position-based aggregation micro-benchmarks: the float GROUP BY folded
# on dictionary codes in morsel order, the aggregate fused into the code
# join's probe, and the scans whose morsels are all visible — a global
# aggregate over merged storage, and soe_fanout's two GROUP BYs over eight
# unmerged partitions. What is gated is allocs/op (benchguard fails a row
# over 10% above its recorded value) and B/op (over 25%): a per-input-row
# allocation coming back shows as a thousandfold jump in the first, a
# selection vector coming back as a tenfold jump in the second, on any
# host. The ns/op tolerance is wide for the same reason as benchpoint's.
BENCHAGG = BenchmarkGroupByFloatSum|BenchmarkJoinAggDict|BenchmarkScanMainNoFilter|BenchmarkScanDelta(GroupBy|FilterAgg)
benchagg:
	$(GO) test -run xxx -bench '$(BENCHAGG)' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match '$(BENCHAGG)' -tolerance 100

# Commit-pipeline micro-benchmarks: concurrent disjoint-table committers
# through the group-commit path vs the serialized baseline (one fsync per
# batch vs one per commit), gated by the same baseline file. The merge the
# commit queue waits on rides along: 4,096 delta rows into a 200,000-row
# main, held to its recorded B/op (+25%) and allocs/op (+10%) — a stamp or
# a boxed cell copied per row again shows as megabytes — with the ns/op
# tolerance wide, as benchpoint's is.
benchcommit:
	$(GO) test -run xxx -bench 'BenchmarkCommit(GroupDisjoint|Serialized)$$' -benchtime=1000x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkCommit'
	$(GO) test -run xxx -bench 'BenchmarkMergeAppend$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkMergeAppend' -tolerance 100

# Point-select micro-benchmarks: the oltp_point statement in process, key
# as a $$1 parameter vs spelled as a literal. The gate that matters is
# the pair's allocs/op: benchguard fails when the parameter form
# allocates over 10% more per op than the literal form (it has lost its
# scan kernel, and boxes every row). The ns/op tolerance is wide because
# a 35 us statement swings with the container's CPU far more than the
# big scans do. The same statement over loopback pgwire, and olap_scan's
# 20,000-row wide result beside it, ride along: what holds them is the
# recorded allocs/op (+10%) and B/op (+25%) — a frame, a row or a Describe
# that allocates again shows as a multiple of the first, a result
# materialized before it is sent as a multiple of the second.
benchpoint:
	$(GO) test -run xxx -bench 'Benchmark(Wire)?PointSelect' -benchtime=5000x -benchmem . | $(GO) run ./cmd/benchguard -match 'Benchmark(Wire)?PointSelect' -tolerance 100
	$(GO) test -run xxx -bench 'BenchmarkWireWideResult$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkWireWideResult' -tolerance 100

# SOE insert micro-benchmarks: Cluster.Insert of 1,000-row batches and of
# single rows on a 4-node cluster over a zero-latency network. Gated on
# allocs/op like benchagg: a row re-encoded per hop or decoded on a node
# that does not host it shows as a multiple, on any host. rows/s and log
# bytes per row are reported beside it.
benchsoe:
	$(GO) test -run xxx -bench 'BenchmarkSOEInsert(Batch|Row)$$' -benchtime=200x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkSOEInsert' -tolerance 100

# The end-to-end benchmark is a module of its own (bench/go.mod), so the
# root `go build ./... && go test ./...` never compiles it: this target
# is what notices when an internal/ API it calls changes under it.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the committed benchmark baseline after an intentional perf
# change; benchguard -write preserves the workload prose and recomputes
# the derived speedups. See README "Benchmark baseline" for the workflow.
# Six passes merge into one file: the commit, point-select and SOE-insert
# benchmarks need more iterations than the big-table scans to settle, the
# wide wire result and the merge fewer than what they are gated with.
benchbaseline:
	$(GO) test -run xxx -bench 'BenchmarkScan(Vectorized|RowAtATime)$$|BenchmarkParallelAgg|BenchmarkJoinDict|BenchmarkGroupByRLE|$(BENCHAGG)' -benchtime=10x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkCommit(GroupDisjoint|Serialized)$$' -benchtime=1000x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkMergeAppend$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'Benchmark(Wire)?PointSelect' -benchtime=5000x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkWireWideResult$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkSOEInsert(Batch|Row)$$' -benchtime=200x -benchmem . | $(GO) run ./cmd/benchguard -write

bench:
	$(GO) test -bench=. -benchmem ./...

ci: lint build race experiments fuzzsmoke benchsmoke benchcompressed benchagg benchcommit benchpoint benchsoe benchmod
