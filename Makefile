# Tier-1 gate: everything CI runs, runnable locally with `make check`.

GO ?= go

.PHONY: check fmt vet build test race loc bench bench-test bench-pairs bench-server bench-core bench-engine bench-formula profile-engine eval-floors eval-pairs fuzz-smoke perf-check crash-smoke failover-smoke stress-drain

check: fmt vet build race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The drain-ownership and barrier tests, the tests that cross the session
# lifecycle's transitions (degrade, repair, eviction, fork, quarantine), and
# the replication tests (a standby polling the journal endpoint, promotion),
# ten times over under the race detector: a lost wake-up, a write-fence
# deadlock or a transition racing a drain shows on some runs only.
stress-drain:
	$(GO) test -race -run 'Wait|Drain|OneDrainer|Stress|Lifecycle|Degrad|Repair|Evict|Fork|Quarantin|Standby|Promote' -count=10 ./internal/server

# Non-test Go lines per package — the number simplicity PRs report before
# and after. CI prints it on every run.
loc:
	@sh scripts/loc.sh

# The repository's benchmark (BENCHMARK.json): every workload, untraced,
# every oracle checked; non-zero exit on a mismatch. bench/ is its own
# module, so the root's build, vet and tests never see it — bench-test is
# what compile-checks it against the engine and server API it calls.
bench:
	bash bench/run.sh -seed 1

bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Alternating parent/change pairs of one workload, the way a claimed gain is
# shown (choosing-metrics §8): every run, medians, quartiles, wins and the
# verdict per end-to-end metric. PARENT is a checkout of the parent commit
# (`git clone . /tmp/parent && git -C /tmp/parent checkout <rev>`), the
# change is this tree:  make bench-pairs PARENT=/tmp/parent W=engine_recalc N=10
bench-pairs:
	bash scripts/bench_pairs.sh $(PARENT) . $(W) $(or $(N),10) $(SEED0)

# Refresh the serving perf baseline. Includes the drain probe (mixed read +
# giant-drain scenario): read_p50_during_drain_ms and drain_cells_per_sec
# land in the report and are gated by benchdiff alongside edits/s.
# -metrics-url adds server_metrics (drain-hold percentiles, spill traffic,
# parse-cache hit rate) to the report; benchdiff ignores unknown fields.
# -standby-url inproc boots a warm standby shipping the primary's journals,
# so the baseline measures the replicated configuration and reports the
# replication lag mirrored reads observed. -churn-rounds exercises
# value-only eviction churn, which a durable store evicts without writing
# (spill_bytes_per_edit), and -fork-storm the copy-on-write fork latency
# (fork_p50_ms); benchdiff gates both.
bench-server:
	$(GO) run ./cmd/tacoload -sessions 32 -edits 100 -rows 100 -max-resident 12 -durable -churn-rounds 4 -fork-storm 64 -metrics-url /metrics -standby-url inproc -json > BENCH_server.json
	@cat BENCH_server.json

# Core traversal/maintenance microbenchmarks with their allocations
# (-benchmem). CI smoke-runs every benchmark once so a regression that breaks
# (or hangs) the compressed-graph hot path fails the build, and its log shows
# allocs/op for every traversal and maintenance benchmark. Run once, a
# traversal is cold: its one call fills the graph's scratch. Drop -benchtime
# for real measurements, where a warm FindDependents allocates little beyond
# its answer.
bench-core:
	$(GO) test ./internal/core -run '^$$' -bench=. -benchmem -benchtime=1x

# The two edits that dominate engine_recalc and serve_big_drain, on the
# 20k-row ledger built in the test (the rate edit also reports ns/cell), its
# formula rewrite-and-restore (BenchmarkLedgerRewrite, the run table's repair), and
# the edit under a 20k-row running total — the fast inner loop for scheduler
# and sweep work — then one 20k-row column per sweep shape (BenchmarkSweepShape,
# ns/cell each: a running balance on the recurrence, a cumulative fold over its
# own column on the row loop, sliding windows re-summed off the slab, and
# plain lanes), which says which shape a sweep change moved — and the two
# write paths that reshape a slab, the ledger installed row by row and a
# column's gaps filled mid-slab — the loaded ledger's bytes per cell
# (BenchmarkLedgerHeap: the slab records and the live heap), and the loads of
# the ledger and of the running total (BenchmarkLedgerLoad,
# BenchmarkRunningTotalLoad), and a restore of each scenario session and of
# the ledger from its base (BenchmarkRestoreSnapshot: ns/cell, base B/cell).
# CI smoke-runs them once; drop -benchtime for real measurements.
bench-engine:
	$(GO) test ./internal/engine -run '^$$' -bench='Ledger|RunningTotal|SweepShape|RowByRowInstall|MidColumnInsert|RestoreSnapshot' -benchtime=1x

# The formula intern table's three paths (BenchmarkParseShape): a hit, a miss
# into an emptied table, and a respelled miss that takes an interned program.
# CI smoke-runs them once; drop -benchtime for real measurements.
bench-formula:
	$(GO) test ./internal/formula -run '^$$' -bench=. -benchtime=1x

# The rate edit's CPU profile, cumulative, cut to the engine, graph, R-tree and
# formula frames: the edit's stages (mark, FindDependents, carve, link, sweeps)
# and the numeric plan's kernels (NumericSweepRows, NumericChainRows, the row
# loop's NumericSweepRow) in one command. Binary and profile go to a temporary
# directory, removed afterwards.
profile-engine:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test ./internal/engine -run '^$$' -bench '^BenchmarkLedgerRateEdit$$' -benchtime=3s \
		-cpuprofile "$$dir/cpu.out" -o "$$dir/engine.test" && \
	$(GO) tool pprof -top -cum -show 'internal/(engine|core|rtree|formula)' "$$dir/engine.test" "$$dir/cpu.out"

# The eval shapes' speedup floors (BenchmarkEvalShape): per shape, its slow
# path's ns/op over its fast path's must reach the floor the shape declares —
# 2x bulk over per-cell on every range shape, 3x vectorized over the walk on
# pattern_mul_add_column. Both paths run in one process, so the floors hold on
# any host. CI's perf job runs it; so does perf-check.
eval-floors:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) test ./internal/engine -run '^$$' -bench '^BenchmarkEvalShape$$' -benchtime=1s > "$$out" && cat "$$out" && \
	awk '/^BenchmarkEvalShape\// { n++; for (f = 5; f < NF; f += 2) m[$$(f + 1)] = $$f; \
		if (m["speedup"] < m["floor"]) { printf "FLOOR MISSED: %s speedup %.2fx, floor %.2fx\n", $$1, m["speedup"], m["floor"]; bad = 1 } } \
		END { if (!n) print "no eval shape ran"; exit bad || !n }' "$$out"

# The eval shapes' timings, gated against the parent on the same host: N
# alternating parent/change runs of BenchmarkEvalShape, medians, quartiles and
# wins per shape and path, failing when a change median is more than 25 %
# worse than the parent's (scripts/eval_pairs.sh). PARENT is a checkout of the
# parent commit, as for bench-pairs; CI's perf job runs it against the
# commit's base:  make eval-pairs PARENT=/tmp/parent N=10
eval-pairs:
	bash scripts/eval_pairs.sh $(PARENT) . $(or $(N),10)

# Bounded native-fuzz smoke, mirrored by CI. The nightly workflow runs the
# same targets at 10 minutes each (see .github/workflows/nightly.yml).
fuzz-smoke:
	$(GO) test ./internal/formula -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=15s
	$(GO) test ./internal/formula -run '^$$' -fuzz '^FuzzEval$$' -fuzztime=15s
	$(GO) test ./internal/formula -run '^$$' -fuzz '^FuzzBytecodeEval$$' -fuzztime=15s
	$(GO) test ./internal/formula -run '^$$' -fuzz '^FuzzNumericLanes$$' -fuzztime=15s
	$(GO) test ./internal/formula -run '^$$' -fuzz '^FuzzShapeRender$$' -fuzztime=15s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzRecalcParallel$$' -fuzztime=15s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzWalkCycles$$' -fuzztime=15s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzRangeFolds$$' -fuzztime=15s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzSpanDrain$$' -fuzztime=15s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzColStore$$' -fuzztime=15s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime=15s
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime=15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzGraphSequence$$' -fuzztime=15s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzStoreLifecycle$$' -fuzztime=15s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime=15s

# Local mirror of CI's perf-regression gate: measure the server now, compare
# against the checked-in baseline and fail on a >25% regression (edits/s,
# mid-drain read p50, drain throughput, spill bytes an edit, fork p50), then
# hold the eval shapes to their speedup floors (eval-floors). The eval shapes'
# timings are gated against a parent checkout instead (eval-pairs).
perf-check: eval-floors
	$(GO) run ./cmd/tacoload -sessions 32 -edits 100 -rows 100 -max-resident 12 -durable -churn-rounds 4 -fork-storm 64 -metrics-url /metrics -standby-url inproc -json > /tmp/taco_bench_server.json
	$(GO) run ./cmd/benchdiff -tol 0.25 BENCH_server.json /tmp/taco_bench_server.json

# Kill-and-restart smoke, mirrored by CI's perf job: journaled edits into a
# durable tacoserve, SIGKILL mid-stream, restart on the same spill dir, and
# `tacoload -replay` verifies every session converges to the never-crashed
# result (no torn files, nothing quarantined).
crash-smoke:
	$(GO) build -o bin/ ./cmd/tacoserve ./cmd/tacoload
	BIN=bin sh scripts/crash_smoke.sh

# Failover smoke, mirrored by CI's perf job: a warm standby ships a durable
# primary's journals, the primary is SIGKILLed mid-workload, the standby is
# promoted, and `tacoload -replay` verifies the promoted server serves an
# exact prefix of the acknowledged batches (async replication may lag, but
# must never be wrong).
failover-smoke:
	$(GO) build -o bin/ ./cmd/tacoserve ./cmd/tacoload
	BIN=bin sh scripts/failover_smoke.sh
