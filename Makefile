# Convenience entry points; everything below is plain dune.

SMOKE_METRICS := /tmp/obs.json

.PHONY: all build test fmt-check check check-smoke check-torture \
  bench-smoke bench-obs bench-hotpath bench-hotpath-guard \
  bench-scaling bench-scaling-smoke bench-provider-zoo \
  trace-smoke trend-guard bench-tailattr \
  bench-serve bench-serve-smoke bench-reclaim bench-reclaim-smoke \
  bench-snapshot bench-snapshot-smoke e2e-smoke e2e-pairs e2e-phases clean

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is not in the toolchain, so the fmt alias is scoped to dune
# files (see dune-project); this still catches drift in build stanzas.
fmt-check:
	dune build @fmt

check: build fmt-check test check-smoke e2e-smoke

# Every served workload at 2,000 requests, each answer checked and the
# metric names and units matched against BENCHMARK.json (~5 s): a change
# that breaks the served path fails here, not only in a pairs run.  The
# bench pins itself to one CPU and the server inherits the mask, so this
# serves through the inline executor (0 worker domains); test_serve
# covers the worker-domain executor.
e2e-smoke: build
	dune build @bench/e2e/smoke

# Seeded fault-injection torture of every structure under the provider
# zoo (logical, delayed, multislot, tl2 and rdtscp-strict), each recorded
# history verified by the snapshot oracle (~2 s on 2 vCPUs).  A
# violation leaves a replayable check-*.trace artifact.
check-smoke: build
	dune exec bin/hwts_cli.exe -- check --rounds 4 --seed 0xC0FFEE

# The deep version: more rounds, a second seed, and the hot-path guard
# proving the fault-injection sites are free when disabled.
check-torture: build
	dune exec bin/hwts_cli.exe -- check --rounds 24 --seed 0xC0FFEE
	dune exec bin/hwts_cli.exe -- check --rounds 24 --seed 0xBADF00D
	# The rounds above run under EBR.  The three Citrus trees share one
	# relocation whose grace wait, and citrus-ebrrq's limbo recovery, go
	# through the reclamation backend, so they also run under the
	# TSC-ordered QSBR backend.
	for s in citrus-vcas citrus-bundle citrus-ebrrq; do \
	  dune exec bin/hwts_cli.exe -- check --structure $$s \
	    --reclaim qsbr-tsc --rounds 24 --seed 0xC0FFEE || exit 1; \
	done
	# bst-vcas under rdtscp-strict is the served scan-large pairing.  Its
	# edges go bare whenever no snapshot needs their history, so an edge
	# can come back to a node it held and a CAS that expects that node
	# succeeds again; multi-range rounds hold snapshots across such writes.
	# citrus-vcas and skiplist-vcas keep their links the same way; the
	# skip list's are lock-free too.  bst-vcas's set leaves are immediate
	# keys in their parents' edges, while bst-vcas-kv keeps its leaves in
	# [Entry] blocks beside immediate sentinels: both meet the tree's leaf
	# classifier.  bst-ebrrq-lockfree is the same tree with its leaves
	# labeled by helping: any update may splice a flagged leaf out before
	# its deleter retires it, and held snapshots must still find it
	# through the deleters' announcements.
	for seed in 0xC0FFEE 0xBADF00D; do \
	  for s in bst-vcas bst-vcas-kv citrus-vcas skiplist-vcas \
	    bst-ebrrq-lockfree; do \
	    dune exec bin/hwts_cli.exe -- check --structure $$s \
	      --provider rdtscp-strict --multi --rounds 24 --seed $$seed || exit 1; \
	  done; \
	done
	# The Bundling lists share that link and one lazy skip list:
	# skiplist-bundle under rdtscp-strict is the served mixed-open
	# pairing, and lazylist-bundle, its level-0 instance, runs under that
	# provider and the logical clock.  A link flattens only once labeled
	# at or below the floor, and a new node's own link starts pending.
	for seed in 0xC0FFEE 0xBADF00D; do \
	  for s in skiplist-bundle lazylist-bundle; do \
	    dune exec bin/hwts_cli.exe -- check --structure $$s \
	      --provider rdtscp-strict --multi --rounds 24 --seed $$seed || exit 1; \
	  done; \
	  dune exec bin/hwts_cli.exe -- check --structure lazylist-bundle \
	    --provider logical --multi --rounds 24 --seed $$seed || exit 1; \
	done
	# The lock-based trees keep each node's lock bit and mark in one
	# state word: citrus-ebrrq under the logical clock is the served
	# churn-skew pairing, and citrus-bundle takes its locks under
	# rdtscp-strict.
	for seed in 0xC0FFEE 0xBADF00D; do \
	  dune exec bin/hwts_cli.exe -- check --structure citrus-ebrrq \
	    --provider logical --multi --rounds 24 --seed $$seed || exit 1; \
	  dune exec bin/hwts_cli.exe -- check --structure citrus-bundle \
	    --provider rdtscp-strict --multi --rounds 24 --seed $$seed || exit 1; \
	done
	$(MAKE) bench-hotpath-guard

# Re-measure the optimized leg with fault injection disabled (the
# default) and fail on any regression vs the checked-in artifact:
# allocation per op is compared near-exactly, throughput with a
# shared-machine tolerance.  The second leg re-runs the guard under the
# logical provider: the provider-zoo code rides in every binary, and the
# near-exact words/op bound proves it costs the pre-existing providers
# nothing (the reference throughput was recorded under rdtscp, so the
# Mops/s tolerance is loosened for that leg — the allocation bound is
# the assertion).
bench-hotpath-guard: build
	dune exec bench/hotpath.exe -- -guard BENCH_hotpath.json
	dune exec bench/hotpath.exe -- -guard BENCH_hotpath.json \
	  -provider logical -guard-tol 0.5

# End-to-end smoke of the metrics pipeline: a short instrumented run must
# produce a JSON-lines file containing the canonical metric set.  Then the
# real-hardware probes: the Section III-A tie probe and the primitive and
# strict-wrapper costs (under 0.5 s together).
bench-smoke: build bench-scaling-smoke bench-provider-zoo trace-smoke \
  trend-guard bench-serve-smoke bench-reclaim-smoke bench-snapshot-smoke
	dune exec bin/hwts_cli.exe -- run bst-vcas --provider rdtscp --seconds 0.2 \
	  --metrics-out $(SMOKE_METRICS)
	dune exec test/validate_metrics.exe -- $(SMOKE_METRICS)
	dune exec bin/hwts_cli.exe -- tsc-info
	dune exec bin/hwts_cli.exe -- calibrate

# Every zoo provider run end to end through the harness: one short
# instrumented run per provider, each metrics file schema-validated.
# Catches a provider that labels correctly in unit tests but wedges or
# starves under the real multi-domain workload.
bench-provider-zoo: build
	for p in logical delayed multislot tl2 rdtscp-strict; do \
	  dune exec bin/hwts_cli.exe -- run bst-vcas --provider $$p \
	    --threads 2 --seconds 0.1 --metrics-out /tmp/zoo_$$p.json \
	    || exit 1; \
	  dune exec test/validate_metrics.exe -- /tmp/zoo_$$p.json || exit 1; \
	done

# A traced run end to end: sampling on, Chrome trace + tail-attribution
# lines written and schema-validated (the Chrome file is what Perfetto
# loads; the attribution lines ride in the metrics file).
trace-smoke: build
	HWTS_TRACE=1 HWTS_TRACE_SAMPLE=4 dune exec bin/hwts_cli.exe -- \
	  run bst-vcas --provider sharded --threads 2 --ops 20000 \
	  --metrics-out /tmp/trace_metrics.json --trace-out /tmp/trace-chrome.json
	dune exec test/validate_metrics.exe -- /tmp/trace_metrics.json
	dune exec test/validate_metrics.exe -- /tmp/trace-chrome.json

# The perf-trajectory gate's self-test, over every checked-in family
# with a throughput (the family specs in lib/benchkit/family.ml say
# which points each compares): each artifact diffed against itself must
# pass and its report must validate; a copy with one series' Mops/s
# scaled to 60% must trip the regression verdict, proving a regression
# confined to one provider or backend cannot hide behind the healthy
# rest; a whole-file slowdown must trip it too (exit 1: a regression,
# not an error); and two different families must be refused rather than
# compared (exit 2 with the family-mismatch message).
TREND_SERIES := BENCH_scaling.json:bst-vcas/tl2 \
  BENCH_reclaim.json:bst-ebrrq-lockfree/qsbr \
  BENCH_snapshot.json:skiplist-bundle/rdtscp-strict/snapshot \
  BENCH_serve.json:bst-vcas/logical/coalesce=true \
  BENCH_hotpath.json:citrus-vcas \
  BENCH_obs.json:bst-vcas/rdtscp

trend-guard: build
	for fs in $(TREND_SERIES); do \
	  f=$${fs%%:*}; s=$${fs#*:}; \
	  dune exec bench/trendcheck.exe -- $$f $$f -out /tmp/trend-report.json \
	    || exit 1; \
	  dune exec test/validate_metrics.exe -- /tmp/trend-report.json || exit 1; \
	  dune exec bench/trendcheck.exe -- -perturb 0.6 -perturb-series "$$s" \
	    -out /tmp/trend-perturbed.json $$f || exit 1; \
	  dune exec bench/trendcheck.exe -- $$f /tmp/trend-perturbed.json; \
	  test $$? -eq 1 || exit 1; \
	done
	dune exec bench/trendcheck.exe -- -perturb 0.6 \
	  -out /tmp/trend-perturbed.json BENCH_scaling.json
	dune exec bench/trendcheck.exe -- BENCH_scaling.json /tmp/trend-perturbed.json; \
	  test $$? -eq 1
	out=$$(dune exec bench/trendcheck.exe -- BENCH_scaling.json BENCH_reclaim.json 2>&1); \
	  test $$? -eq 2 && echo "$$out" | grep -q 'is a bench.scaling artifact but'

# Refresh the checked-in tail-attribution artifact: 3 structures x the
# 6-provider zoo, p50/p99/p999 dominant-phase bands per op class.
bench-tailattr: build
	dune exec bin/hwts_cli.exe -- trace-report -o BENCH_tailattr.json
	dune exec test/validate_metrics.exe -- BENCH_tailattr.json

# Refresh the checked-in serving artifact: the sharded server stood up
# in-process per point, swept over connections x pipeline depth x the
# coalesce switch.  The summary line gates the headline: at pipeline
# depth >= 4 the coalesced arm must acquire strictly fewer snapshots
# per range op (per-RQ is exactly 1 by construction) at comparable
# throughput.
bench-serve: build
	dune exec bench/serve_bench.exe -- -out BENCH_serve.json
	dune exec test/validate_metrics.exe -- BENCH_serve.json

# CI-shaped fast pass: a reduced sweep in /tmp plus an end-to-end
# subprocess round trip of the deployed binary (server + load generator
# over loopback), then schema-validation of both metrics artifacts and
# the checked-in sweep.
bench-serve-smoke: build
	dune exec bench/serve_bench.exe -- -connections 2 -pipelines 1,4 \
	  -ops 600 -trials 1 -out /tmp/serve_smoke.json
	dune exec test/validate_metrics.exe -- /tmp/serve_smoke.json
	dune exec test/validate_metrics.exe -- BENCH_serve.json

# Refresh the checked-in reclamation-backend artifact: the retiring
# EBR-RQ structures under ebr / qsbr / qsbr-tsc at 1 and 2 domains.
# The summary line gates the headline: both QSBR backends must announce
# strictly less often per op than EBR (the per-op stores the boundary
# scheme exists to remove) at comparable throughput; the limbo
# high-water columns record what that costs in retention.
bench-reclaim: build
	dune exec bench/reclaim_bench.exe -- -out BENCH_reclaim.json
	dune exec test/validate_metrics.exe -- BENCH_reclaim.json

# CI-shaped fast pass: reduced sweep in /tmp, a torture round per QSBR
# backend over both functorized structures, then schema-validation of
# the smoke sweep and the checked-in artifact.
bench-reclaim-smoke: build
	dune exec bench/reclaim_bench.exe -- -ops 2000 -warmup 500 -trials 1 \
	  -mops-floor 0.5 -out /tmp/reclaim_smoke.json
	dune exec test/validate_metrics.exe -- /tmp/reclaim_smoke.json
	dune exec test/validate_metrics.exe -- BENCH_reclaim.json
	for p in logical rdtscp-strict; do \
	  dune exec bin/hwts_cli.exe -- check --structure bst-ebrrq-lockfree \
	    --provider $$p --reclaim qsbr --rounds 2 || exit 1; \
	done
	dune exec bin/hwts_cli.exe -- check --structure citrus-ebrrq \
	  --provider logical --reclaim qsbr-tsc --rounds 2

# Refresh the checked-in snapshot-amortization artifact: the paired
# reads-per-snapshot sweep (one Snapshot.t handle covering k reads vs k
# independent single-read acquisitions) over 3 structures x logical /
# rdtscp-strict.  The summary line gates the headline: at
# k in {4,16,64} the snapshot arm must acquire <= (1+eps)/k labels per
# read at >= 95% of the independent arm's throughput; the crossover
# lines record the strict-TSC/logical ratio drifting toward 1 as k
# grows.
bench-snapshot: build
	dune exec bench/snapshot_bench.exe -- -out BENCH_snapshot.json
	dune exec test/validate_metrics.exe -- BENCH_snapshot.json

# CI-shaped fast pass: reduced sweep in /tmp, schema-validation of both
# the smoke sweep and the checked-in artifact, and the engine exercised
# end to end through the harness op classes (multiget/multirange draws
# with their latency histograms).
bench-snapshot-smoke: build
	dune exec bench/snapshot_bench.exe -- -reads 2048 -trials 1 \
	  -out /tmp/snapshot_smoke.json
	dune exec test/validate_metrics.exe -- /tmp/snapshot_smoke.json
	dune exec test/validate_metrics.exe -- BENCH_snapshot.json
	dune exec bin/hwts_cli.exe -- run skiplist-bundle --provider rdtscp \
	  --seconds 0.2 --multiget 8 --multirange 4 \
	  --metrics-out /tmp/snapshot_run.json
	dune exec test/validate_metrics.exe -- /tmp/snapshot_run.json

# Refresh the checked-in observability benchmark artifact.
bench-obs: build
	dune exec bin/hwts_cli.exe -- run bst-vcas --provider rdtscp --seconds 1 \
	  --metrics-out BENCH_obs.json
	dune exec test/validate_metrics.exe -- BENCH_obs.json

# Refresh the checked-in hot-path before/after artifact: baseline leg
# (scratch off, registry scan per prune) vs optimized leg (per-domain
# scratch reuse, cached floor) over the same seeded fixed-op runs.
bench-hotpath: build
	dune exec bench/hotpath.exe -- -trials 5 -out BENCH_hotpath.json
	dune exec test/validate_metrics.exe -- BENCH_hotpath.json

# Refresh the checked-in domain-scaling artifact: every structure under
# the provider zoo (logical, delayed, multislot, tl2, rdtscp-strict)
# across $(HWTS_DOMAINS) (default 1,2,4,8) worker domains.
# 100k-op legs and 5 trials: a 20k-op leg lasts ~40ms — a handful of
# scheduler quanta on a single-vCPU box, so one preemption swings a leg
# by 25%+ and median-of-3 cannot reject it.
bench-scaling: build
	dune exec bench/scaling.exe -- -ops 100000 -warmup 10000 -trials 5 \
	  -out BENCH_scaling.json
	dune exec test/validate_metrics.exe -- BENCH_scaling.json

# Fast CI-shaped pass over the same code path: two domain counts, few
# ops, schema-validated output in /tmp.
bench-scaling-smoke: build
	HWTS_DOMAINS=1,2 dune exec bench/scaling.exe -- -ops 2000 -warmup 500 \
	  -trials 1 -out /tmp/scaling_smoke.json
	dune exec test/validate_metrics.exe -- /tmp/scaling_smoke.json
	dune exec test/validate_metrics.exe -- BENCH_scaling.json

# Alternating pairs of the served-request benchmark, BASE against the
# working tree, each side built from source in a temporary checkout:
#   make e2e-pairs BASE=<rev> WORKLOAD=<name|all> [PAIRS=10]
# Prints medians, quartiles and pairs won for setup_s and server_rss_mb,
# then for the ungated req_per_s, p50_us, p99_us, minor_gcs, heap_words,
# promoted_words and top_heap_words (the server's gc.* gauges of those
# names, each averaged over a run's repetitions), and the number of runs per side
# that reported valid=false (an open-loop generator that fell behind),
# per workload (`all`: every workload in BENCHMARK.json, in turn).
PAIRS ?= 10
e2e-pairs:
	@test -n "$(BASE)" && test -n "$(WORKLOAD)" || \
	  { echo "usage: make e2e-pairs BASE=<rev> WORKLOAD=<name|all> [PAIRS=10]" >&2; exit 2; }
	bash bench/pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

# The server's VmHWM and VmRSS after start, prefill, warmup, measured
# and final, per repetition, and their medians:
#   make e2e-phases WORKLOAD=<name|all>
e2e-phases:
	@test -n "$(WORKLOAD)" || \
	  { echo "usage: make e2e-phases WORKLOAD=<name|all>" >&2; exit 2; }
	dune build bin/hwts_serve.exe bench/e2e_phases.exe
	./_build/default/bench/e2e_phases.exe --workload $(WORKLOAD)

clean:
	dune clean
