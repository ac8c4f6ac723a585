# Developer entry points. `make ci` is the gate: lint (gofmt + vet), build,
# the whole tree's tests under -race (every parity, chaos, wire, HTAP and
# monitoring suite and the E1..E25 shape assertions are among them, run
# once), 10 s of each native fuzz target, the benchguard-gated
# micro-benchmarks, and vet + tests of the end-to-end benchmark's module.

GO ?= go

.PHONY: all lint vet build test race fuzzsmoke benchsmoke benchcompressed benchagg benchcommit benchpoint benchsoe benchbaseline benchmod bench loc ci

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

# Ten seconds of each native fuzz target, found by grep over the test
# files, so a new target cannot be left out; each runs alone in its own
# package (go test runs one -fuzz target per invocation) under an anchored
# pattern, so a target whose name starts with another's is not a second
# match. What a target checks is said in its own doc comment.
fuzzsmoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=bench '^func Fuzz' .); do \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' $$f); do \
			echo "fuzz $$name $$(dirname $$f)/"; \
			$(GO) test -run xxx -fuzz "^$$name\$$" -fuzztime 10s $$(dirname $$f)/; \
		done; \
	done

# Quick pass over the vectorized scan/aggregation micro-benchmarks and the
# ordered scan over 8 and over 32 morsels (which benchguard also holds to
# the same allocs/op: the hand-off costs nothing per morsel), gated by
# cmd/benchguard against the committed BENCH_vectorized_baseline.json.
# This and every bench target below is held to the same two counts: a row
# over 10% above its recorded allocs/op or 25% above its recorded B/op
# fails. ns/op is printed with its delta and fails nothing — it does not
# repeat on this host. benchguard also fails if a baseline benchmark is
# missing from the output, so a crashed bench run cannot slip through the
# pipe as a pass.
BENCHSMOKE = BenchmarkScan(Vectorized|RowAtATime)$$|BenchmarkParallelAgg|BenchmarkOrderedScan
benchsmoke:
	$(GO) test -run xxx -bench '$(BENCHSMOKE)' -benchtime=100x -benchmem . | $(GO) run ./cmd/benchguard -match '$(BENCHSMOKE)'

# Compressed-execution micro-benchmarks: the code-valued join probe, the
# same join on two keys rendered per probe position, and the run-folding
# group-by, the first and last against their row-at-a-time counterparts,
# gated by the same baseline file (join/group-by subset via -match).
BENCHCOMPRESSED = BenchmarkJoinDict|BenchmarkJoinTwoKeys|BenchmarkGroupByRLE
benchcompressed:
	$(GO) test -run xxx -bench '$(BENCHCOMPRESSED)' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match '$(BENCHCOMPRESSED)'

# Position-based aggregation micro-benchmarks: the float GROUP BY folded
# on dictionary codes per worker into exact sums, two rendered keys with a
# computed argument folded the same way, the aggregate fused into the code
# join's probe, and the scans whose morsels are all visible — a global
# aggregate over merged storage, and soe_fanout's two GROUP BYs over eight
# unmerged partitions. A per-input-row allocation coming back shows as a
# thousandfold jump in allocs/op, a selection vector coming back as a
# tenfold jump in B/op, on any host.
BENCHAGG = BenchmarkGroupByFloatSum|BenchmarkGroupByTwoKeys|BenchmarkJoinAggDict|BenchmarkScanMainNoFilter|BenchmarkScanDelta(GroupBy|FilterAgg)
benchagg:
	$(GO) test -run xxx -bench '$(BENCHAGG)' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match '$(BENCHAGG)'

# Commit-pipeline micro-benchmarks: concurrent disjoint-table committers
# through the group-commit path vs the serialized baseline (one fsync per
# batch vs one per commit), gated by the same baseline file, and
# ingest_durable's prepared one-row INSERT over loopback pgwire into a
# durable store, whose allocs/op say what a statement costs beside its row
# (a map, closure or channel per commit, a compiled cell, a count, portal
# or tag per statement each shows as one more), and olap_scan's bulk load
# in process — 1,000-row literal INSERTs, where a node, a strings.Builder
# or a slice per cell coming back shows as thousands of allocs/op. Two merges
# ride along: 4,096 delta rows into a 200,000-row main — a stamp, a boxed
# cell or a position remap copied per row again shows as megabytes — and
# 4,000 single-row updates of disjoint keys from four goroutines with a
# merge after every 64th commit, whose conflicts/op and retries/op must read
# 0 and which must report what the merges did under the table lock
# (rows_under_lock/op, stalled_applies/op; the benchmark itself fails when
# that is every row merged).
BENCHCOMMIT = BenchmarkCommit(GroupDisjoint|Serialized)$$
benchcommit:
	$(GO) test -run xxx -bench '$(BENCHCOMMIT)' -benchtime=1000x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkCommit'
	$(GO) test -run xxx -bench 'BenchmarkWireInsertPrepared$$' -benchtime=5000x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkWireInsertPrepared'
	$(GO) test -run xxx -bench 'BenchmarkInsertValues$$' -benchtime=200x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkInsertValues'
	$(GO) test -run xxx -bench 'BenchmarkMergeAppend$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkMergeAppend'
	@out=$$($(GO) test -run xxx -bench 'BenchmarkUpdateUnderMerge$$' -benchtime=4000x -benchmem .); echo "$$out"; \
	echo "$$out" | grep -Eq '[[:space:]]0 conflicts/op[[:space:]]+0 retries/op[[:space:]]' && \
	echo "$$out" | grep -q ' rows_under_lock/op' && echo "$$out" | grep -q ' stalled_applies/op' || \
		{ echo "benchcommit: BenchmarkUpdateUnderMerge must report 0 conflicts/op, 0 retries/op, rows_under_lock/op and stalled_applies/op"; exit 1; }; \
	echo "$$out" | $(GO) run ./cmd/benchguard -match 'BenchmarkUpdateUnderMerge'

# Point-select micro-benchmarks: the oltp_point statement in process, key
# as a $$1 parameter vs spelled as a literal. Besides every row's own
# baseline, benchguard fails when the parameter form allocates over 10%
# more per op than the literal form (it has lost its scan kernel, and
# boxes every row). The same statement over loopback pgwire, a one-row
# UPDATE and DELETE by the same key, and — in a second run, at fewer
# iterations — olap_scan's 20,000-row wide result ride along: a frame, a
# row or a Describe that allocates again shows as a multiple of
# allocs/op, a victim search that boxes the table again as a hundredfold
# jump, and a wide result boxed on its way to the wire (windows of cells
# in flight, ~1.3 MB; the whole result materialized before it is sent, a
# multiple) in B/op, most of which is this client's decoded rows.
BENCHPOINT = Benchmark(Wire)?Point(Select|Delete|Update)
BENCHWIDE = BenchmarkWireWideResult
benchpoint:
	$(GO) test -run xxx -bench '$(BENCHPOINT)' -benchtime=5000x -benchmem . | $(GO) run ./cmd/benchguard -match '$(BENCHPOINT)'
	$(GO) test -run xxx -bench '$(BENCHWIDE)$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -match '$(BENCHWIDE)'

# SOE micro-benchmarks on a 4-node cluster over a zero-latency network:
# Cluster.Insert of 1,000-row batches and of single rows (a row re-encoded
# per hop or decoded on a node that does not host it shows as a multiple
# of allocs/op; rows/s and log bytes per row are reported beside it), and
# soe_fanout's four SELECTs over 50,000 rows in partitions as the nodes'
# merge daemons leave them, main plus a short delta, the range select with
# new literals on every op (a new spelling of the coordinator's cached
# shape), and the first of them again over partitions merged to the last
# row (a node task that parses, plans or snapshots once per partition
# again shows in allocs/op, a node's workers outnumbering its engine's
# scan-scratch free list in B/op). The tracing of one of those SELECTs —
# fourteen spans in five roots with their attributes, on a warm tracer
# whose ring evicts as many — is recorded at 0 allocs/op: a span that
# allocates again fails.
BENCHSOE = BenchmarkSOE(Insert(Batch|Row)|FanoutQuery)$$
BENCHTRACE = BenchmarkTraceSpanTree$$
benchsoe:
	$(GO) test -run xxx -bench '$(BENCHSOE)' -benchtime=200x -benchmem . | $(GO) run ./cmd/benchguard -match 'BenchmarkSOE'
	$(GO) test -run xxx -bench '$(BENCHTRACE)' -benchtime=10000x -benchmem ./internal/stats/ | $(GO) run ./cmd/benchguard -match 'BenchmarkTraceSpanTree'

# The end-to-end benchmark is a module of its own (bench/go.mod), so the
# root `go build ./... && go test ./...` never compiles it: this target
# is what notices when an internal/ API it calls changes under it.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the committed benchmark baseline after an intentional perf
# change; benchguard -write preserves the workload prose and recomputes
# the derived speedups. See README "Benchmark baseline" for the workflow.
# Ten passes merge into one file: the commit, point-select and SOE
# benchmarks need more iterations than the big-table scans to settle, the
# wide wire result and the merge fewer than what they are gated with.
benchbaseline:
	$(GO) test -run xxx -bench '$(BENCHSMOKE)|$(BENCHCOMPRESSED)|$(BENCHAGG)' -benchtime=10x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench '$(BENCHCOMMIT)' -benchtime=1000x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkWireInsertPrepared$$' -benchtime=5000x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkInsertValues$$' -benchtime=200x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkMergeAppend$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench 'BenchmarkUpdateUnderMerge$$' -benchtime=4000x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench '$(BENCHPOINT)' -benchtime=5000x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench '$(BENCHWIDE)$$' -benchtime=20x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench '$(BENCHSOE)' -benchtime=200x -benchmem . | $(GO) run ./cmd/benchguard -write
	$(GO) test -run xxx -bench '$(BENCHTRACE)' -benchtime=10000x -benchmem ./internal/stats/ | $(GO) run ./cmd/benchguard -write

bench:
	$(GO) test -bench=. -benchmem ./...

# Non-test Go lines per package and in total: the number every PR reports
# for its parent and for itself.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/out/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

ci: lint build race fuzzsmoke benchsmoke benchcompressed benchagg benchcommit benchpoint benchsoe benchmod
