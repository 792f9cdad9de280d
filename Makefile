# Convenience targets; the repository needs only the Go toolchain.

GO ?= go

.PHONY: build test test-short race race-serve fuzz fuzz-diff verify clean bench bench-gate fig3-golden bench-smoke bench-informbench-smoke obs-smoke serve-smoke chaos-smoke cluster-smoke trace-smoke policy-smoke paper-gen paper-tables paper-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short is the fast lane: skips the heavy experiment sweeps,
# differential grids and real-simulation service tests (seconds, not
# minutes) — the first thing to run while iterating.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# race-serve shakes the serving layer's concurrency machinery
# (single-flight, bounded queue, worker pool, LRU), the cluster
# transport under it, the pool and metrics, and the block-parallel trace
# reader every trace upload goes through, with the race detector.
race-serve:
	$(GO) test -race ./internal/serve/ ./internal/cluster/ ./internal/sched/ ./internal/obs/ ./internal/trace/

fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzAssemble -fuzztime=10s ./internal/asm
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/isa
	$(GO) test -run=^$$ -fuzz=FuzzReplay -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzParseLine -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzDecodeCells -fuzztime=10s ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzTenantsFile -fuzztime=10s ./internal/serve

# fuzz-diff is the cross-engine differential fuzzer (internal/progen):
# seeded random programs must produce bit-identical architectural state
# on the functional interpreter, the in-order core and the out-of-order
# core, across all three informing schemes.
fuzz-diff:
	$(GO) test -run=^$$ -fuzz=FuzzCrossEngine -fuzztime=10s ./internal/progen

# bench regenerates the committed hot-path ledger (EXPERIMENTS.md "Hot-path
# benchmarks"): the raw output of the Go hot-path benchmarks
# (internal/core/hotpath_bench_test.go; ns/inst, B/op, allocs/op), five
# runs each, headed by the toolchain version. benchstat reads it as is.
# A failing benchmark fails the target and leaves the ledger untouched.
bench:
	{ echo "go: $$($(GO) env GOVERSION)"; \
		$(GO) test -run '^$$' -bench Hotpath -benchmem -count 5 ./internal/core; } > /tmp/bench_hotpath.txt
	cp /tmp/bench_hotpath.txt BENCH_hotpath.txt

# bench-gate is the CI perf regression check: re-run the same benchmarks
# three times, and fail if one of them fails, if a committed measurement
# is missing from the run, or if the best of a measurement's runs
# regressed beyond its threshold against the committed BENCH_hotpath.txt
# (10% for full cells, wider built-in bounds for the microbenchmarks; see
# cmd/benchdiff).
bench-gate:
	$(GO) test -run '^$$' -bench Hotpath -benchmem -count 3 ./internal/core > /tmp/bench_gate.txt \
		|| { cat /tmp/bench_gate.txt; exit 1; }
	$(GO) run ./cmd/benchdiff -committed BENCH_hotpath.txt -fresh /tmp/bench_gate.txt

# fig3-golden extracts what `handlerbench -experiment fig3 -raw` must
# print: the committed "Figure 3: su2cor with generic miss handlers" block
# of docs_experiments_raw.txt, found by its header and ending with the
# blank line before the next table's title. bench-smoke, obs-smoke and
# policy-smoke compare their fig3 runs against it, so one file defines
# what fig3 prints.
fig3-golden:
	awk '/^Figure 3: su2cor with generic miss handlers$$/ { on = 1 } \
		on { line[n++] = $$0 } \
		on && n > 2 && /^=+$$/ { exit } \
		END { for (i = 0; i < n - 2; i++) print line[i] }' \
		docs_experiments_raw.txt > /tmp/fig3_golden.txt
	test -s /tmp/fig3_golden.txt

# bench-smoke checks the parallel runner end to end: the sequential and
# the -j sweep must both print the committed fig3 block byte for byte.
bench-smoke: fig3-golden
	$(GO) build -o /tmp/handlerbench ./cmd/handlerbench
	/tmp/handlerbench -experiment fig3 -raw -j 1 > /tmp/fig3_j1.txt
	/tmp/handlerbench -experiment fig3 -raw > /tmp/fig3_jN.txt
	cmp /tmp/fig3_golden.txt /tmp/fig3_j1.txt
	cmp /tmp/fig3_golden.txt /tmp/fig3_jN.txt

# bench-informbench-smoke builds and checks informbench (bench/, its own
# module, so `go test ./...` at the root never compiles it) against the
# packages it imports: every workload's set-up and output checks at a
# small size.
bench-informbench-smoke:
	cd bench && $(GO) test -short ./...

# obs-smoke checks observability end to end (EXPERIMENTS.md
# "Observability"): a sweep with metrics and 1-in-64 trace sampling must
# print the committed fig3 block byte for byte, emit schema-valid JSONL
# (cmd/tracecheck), and print a metrics registry on stderr.
obs-smoke: fig3-golden
	$(GO) build -o /tmp/handlerbench ./cmd/handlerbench
	$(GO) build -o /tmp/tracecheck ./cmd/tracecheck
	/tmp/handlerbench -experiment fig3 -raw -j 1 -metrics \
		-trace-out /tmp/fig3_trace.jsonl -trace-sample 64 \
		> /tmp/fig3_obs.txt 2> /tmp/fig3_metrics.txt
	cmp /tmp/fig3_golden.txt /tmp/fig3_obs.txt
	/tmp/tracecheck /tmp/fig3_trace.jsonl
	grep -q '"sim_instrs"' /tmp/fig3_metrics.txt

# serve-smoke exercises informd end to end (EXPERIMENTS.md "Simulation as
# a service") without leaving the test harness: the examples smoke test
# builds the daemon, starts it on an ephemeral port, round-trips one
# request and shuts it down with SIGTERM.
serve-smoke:
	$(GO) test -run TestInformdSmoke -v .

# chaos-smoke is the robustness lane (DESIGN.md §13): the serving layer
# under injected filesystem faults (degrade to RAM-only, quarantine +
# recompute), tenant admission control, the cache↔store interleaving
# under the race detector, and the operator-level warm restart (build the
# daemon, populate the store, SIGTERM, restart, prove sim_instrs delta 0).
chaos-smoke:
	$(GO) test -race -run 'TestStore|TestTenant|TestWeightedFair|TestOverloadRetryAfter|TestReadyz|TestCacheStoreRace|TestFSInjector' ./internal/serve/ ./internal/store/ ./internal/faults/
	$(GO) test -run TestInformdWarmRestart -v .

# cluster-smoke is the distributed-informd acceptance lane (DESIGN.md
# §15): three in-process nodes serve the 18-cell golden grid scattered/
# gathered byte-identically to the sequential reference; the repeated
# grid against a non-owner node resolves all-cached with a cluster-wide
# sim_instrs delta of exactly 0; a peer dying mid-workload degrades to
# local compute with identical results. The routing/forwarding machinery
# also runs under the race detector.
cluster-smoke:
	$(GO) test -race -short -run 'TestOwnership|TestForward|TestNewValidates|TestNon200|TestCluster|TestReadyzSubsystem' ./internal/cluster/ ./internal/serve/
	$(GO) test -run 'TestClusterGoldenGrid|TestClusterExperimentScatterGather' -v ./internal/serve/

# trace-smoke is the closed-loop trace lane (DESIGN.md §16): record a
# full schema-v2 trace and the run statistics with informsim, validate
# the trace format, replay it through the same geometry with no ISA
# program, and demand exact (delta-0) reconciliation of every per-level
# reference and miss counter. Repeated for both machine geometries, plus
# a -j sweep parity check on the geometry-sensitivity table.
trace-smoke:
	$(GO) build -o /tmp/informsim ./cmd/informsim
	$(GO) build -o /tmp/tracecheck ./cmd/tracecheck
	$(GO) build -o /tmp/tracereplay ./cmd/tracereplay
	/tmp/informsim -machine ooo -scheme trap-branch -trace-out /tmp/smoke_ooo.jsonl -trace-sample 1 \
		-stats-out /tmp/smoke_ooo.json cmd/tracereplay/testdata/smoke.s > /dev/null
	/tmp/tracecheck /tmp/smoke_ooo.jsonl
	/tmp/tracereplay -machine ooo -expect /tmp/smoke_ooo.json /tmp/smoke_ooo.jsonl
	/tmp/informsim -machine inorder -scheme condcode -trace-out /tmp/smoke_io.jsonl -trace-sample 1 \
		-stats-out /tmp/smoke_io.json cmd/tracereplay/testdata/smoke.s > /dev/null
	/tmp/tracecheck /tmp/smoke_io.jsonl
	/tmp/tracereplay -machine inorder -expect /tmp/smoke_io.json /tmp/smoke_io.jsonl
	/tmp/tracereplay -sweep -j 1 /tmp/smoke_ooo.jsonl > /tmp/smoke_sweep_j1.txt
	/tmp/tracereplay -sweep -j 4 /tmp/smoke_ooo.jsonl > /tmp/smoke_sweep_jN.txt
	cmp /tmp/smoke_sweep_j1.txt /tmp/smoke_sweep_jN.txt

# policy-smoke is the replacement-policy acceptance lane (DESIGN.md §17):
# `-policy lru` must print the committed fig3 block byte for byte (LRU is
# the canonical empty policy, so naming it must change nothing), a non-LRU
# sweep must actually move the numbers (brrip: su2cor's streaming cells
# are srrip-neutral but not brrip-neutral, so this proves the dimension
# is live, not plumbed-and-ignored), the §6 prefetch case study must
# render its
# taxonomy table, and the policy-differential battery, the
# policy×taxonomy golden grid and the /v1/explain round trip must hold.
policy-smoke: fig3-golden
	$(GO) build -o /tmp/handlerbench ./cmd/handlerbench
	/tmp/handlerbench -experiment fig3 -raw -policy lru > /tmp/fig3_lru.txt
	cmp /tmp/fig3_golden.txt /tmp/fig3_lru.txt
	/tmp/handlerbench -experiment fig3 -raw -policy brrip > /tmp/fig3_brrip.txt
	! cmp -s /tmp/fig3_golden.txt /tmp/fig3_brrip.txt
	/tmp/handlerbench -experiment prefetch > /tmp/prefetch.txt
	grep -q 'Miss taxonomy under prefetch handlers' /tmp/prefetch.txt
	$(GO) test -run 'TestPolicy|TestRRIPNotInclusive|TestTaxonomy' ./internal/mem/
	$(GO) test -run 'TestPolicyGolden|TestPolicyArchitecturalNeutrality' ./internal/core/
	$(GO) test -run 'TestExplain' ./internal/serve/

# paper-tables regenerates docs_experiments_raw.txt, the paper's tables
# as the harnesses print them: `handlerbench -experiment all -raw` (every
# table plus exact cycles=/instrs=/refs=/traps= and slot counts for every
# cell, all 14 benchmarks on both machines) followed by `coherencebench
# -sweep -detail` (Figure 4, its per-scheme cycle breakdowns and the
# §4.3.2 sweep). paper-check regenerates the same output at default -j
# into a temp file and requires it byte-identical to the committed one,
# so a change that shifts one cycle in any cell the paper reports shows
# up as a table diff. paper-check also holds EXPERIMENTS.md's "§6 case
# study" table to the out-of-order block under "Miss taxonomy under
# prefetch handlers", found by its header and ending with its blank line:
# every markdown row must carry its raw row's l1miss, compulsory,
# capacity, conflict and norm.
paper-gen:
	$(GO) build -o /tmp/handlerbench ./cmd/handlerbench
	$(GO) build -o /tmp/coherencebench ./cmd/coherencebench
	/tmp/handlerbench -experiment all -raw > /tmp/paper_tables.txt
	/tmp/coherencebench -sweep -detail >> /tmp/paper_tables.txt

paper-tables: paper-gen
	cp /tmp/paper_tables.txt docs_experiments_raw.txt

paper-check: paper-gen
	cmp /tmp/paper_tables.txt docs_experiments_raw.txt
	awk 'NR == FNR && /^Miss taxonomy under prefetch handlers$$/ { tax = 1 } \
		NR == FNR && tax && /^--- out-of-order machine ---$$/ { ooo = 1; next } \
		NR == FNR && ooo && NF == 0 { tax = ooo = 0 } \
		NR == FNR && ooo && $$1 != "benchmark" { raw[$$1 " " $$2] = $$3 " " $$4 " " $$5 " " $$6 " " $$8; nraw++ } \
		NR == FNR { next } \
		/^### §6 case study/ { sec = 1; next } \
		sec && /^#/ { sec = 0 } \
		sec && /^\| [a-z]/ && !/^\| benchmark / { gsub(/\|/, " "); rows++; \
			if (raw[$$1 " " $$2] != $$3 " " $$4 " " $$5 " " $$6 " " $$7) { \
				print "paper-check: EXPERIMENTS.md §6 row " $$1 " " $$2 " differs from docs_experiments_raw.txt" > "/dev/stderr"; bad = 1 } } \
		END { if (!nraw || !rows) { print "paper-check: §6 prefetch table not found" > "/dev/stderr"; bad = 1 } exit bad }' \
		docs_experiments_raw.txt EXPERIMENTS.md

# verify is the full CI gate: build, gofmt, vet, the short and the
# race-enabled tests, the golden grid and allocation gate, fuzz seeds, the
# smoke lanes (cluster and chaos included), the paper tables. The short
# lane and the golden step run without -race, as CI runs them:
# TestCacheHitAllocations asserts its bounds only without -race. The
# short passes over the timing cores' hot-path benchmarks, the trace parser's
# and the replay sweep's keep the benchmarks behind EXPERIMENTS.md
# "Hot-path benchmarks", "Ingest speed" and "Replay sweep speed" running.
verify: build
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test -short ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestHotpathGolden|TestTimingHotLoopAllocationFree' ./internal/core
	$(GO) test -run '^$$' -bench Hotpath -benchtime 2x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'ParseLine|Load' -benchtime 1x ./internal/trace
	$(GO) test -run '^$$' -bench 'TraceSweep|NewHierarchy' -benchtime 1x ./internal/experiments
	$(MAKE) fuzz
	$(MAKE) fuzz-diff
	$(MAKE) bench-smoke
	$(MAKE) bench-informbench-smoke
	$(MAKE) obs-smoke
	$(MAKE) trace-smoke
	$(MAKE) policy-smoke
	$(MAKE) cluster-smoke
	$(MAKE) chaos-smoke
	$(MAKE) paper-check

clean:
	$(GO) clean ./...
