# Convenience entry points; everything below is plain dune.

SMOKE_METRICS := /tmp/obs.json

.PHONY: all build test fmt-check check check-smoke check-torture \
  bench-smoke bench-obs bench-hotpath bench-hotpath-guard \
  bench-scaling bench-scaling-smoke bench-adaptive bench-adaptive-smoke \
  bench-provider-zoo trace-smoke trend-guard bench-tailattr \
  bench-serve bench-serve-smoke bench-reclaim bench-reclaim-smoke \
  bench-snapshot bench-snapshot-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is not in the toolchain, so the fmt alias is scoped to dune
# files (see dune-project); this still catches drift in build stanzas.
fmt-check:
	dune build @fmt

check: build fmt-check test check-smoke

# Seeded fault-injection torture of every structure under the logical,
# rdtscp-strict and adaptive providers (the adaptive rounds force-migrate
# the clock mid-round), each recorded history verified by the snapshot
# oracle (~30s).  A violation leaves a replayable check-*.trace artifact.
check-smoke: build
	dune exec bin/hwts_cli.exe -- check --rounds 4 --seed 0xC0FFEE

# The deep version: more rounds, a second seed, and the hot-path guard
# proving the fault-injection sites are free when disabled.
check-torture: build
	dune exec bin/hwts_cli.exe -- check --rounds 24 --seed 0xC0FFEE
	dune exec bin/hwts_cli.exe -- check --rounds 24 --seed 0xBADF00D
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
# produce a JSON-lines file containing the canonical metric set.
bench-smoke: build bench-scaling-smoke bench-adaptive-smoke \
  bench-provider-zoo trace-smoke trend-guard bench-serve-smoke \
  bench-reclaim-smoke bench-snapshot-smoke
	dune exec bin/hwts_cli.exe -- run bst-vcas --rdtscp --seconds 0.2 \
	  --metrics-out $(SMOKE_METRICS)
	dune exec test/validate_metrics.exe -- $(SMOKE_METRICS)

# Every zoo provider run end to end through the harness: one short
# instrumented run per provider, each metrics file schema-validated.
# Catches a provider that labels correctly in unit tests but wedges or
# starves under the real multi-domain workload.
bench-provider-zoo: build
	for p in logical delayed multislot tl2 rdtscp-strict adaptive; do \
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
	dune exec bin/hwts_cli.exe -- check --structure bst-ebrrq-lockfree \
	  --provider logical --reclaim qsbr --rounds 2
	dune exec bin/hwts_cli.exe -- check --structure citrus-ebrrq \
	  --provider logical --reclaim qsbr-tsc --rounds 2

# Refresh the checked-in snapshot-amortization artifact: the paired
# reads-per-snapshot sweep (one Snapshot.t handle covering k reads vs k
# independent single-read acquisitions) over 3 structures x logical /
# adaptive / rdtscp-strict.  The summary line gates the headline: at
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
	dune exec bin/hwts_cli.exe -- run skiplist-bundle --rdtscp \
	  --seconds 0.2 --multiget 8 --multirange 4 \
	  --metrics-out /tmp/snapshot_run.json
	dune exec test/validate_metrics.exe -- /tmp/snapshot_run.json

# Refresh the checked-in observability benchmark artifact.
bench-obs: build
	dune exec bin/hwts_cli.exe -- run bst-vcas --rdtscp --seconds 1 \
	  --metrics-out BENCH_obs.json
	dune exec test/validate_metrics.exe -- BENCH_obs.json

# Refresh the checked-in hot-path before/after artifact: baseline leg
# (scratch off, registry scan per prune) vs optimized leg (per-domain
# scratch reuse, cached floor) over the same seeded fixed-op runs.
bench-hotpath: build
	dune exec bench/hotpath.exe -- -trials 5 -out BENCH_hotpath.json
	dune exec test/validate_metrics.exe -- BENCH_hotpath.json

# Refresh the checked-in domain-scaling artifact: every structure under
# the logical, rdtscp-strict and adaptive providers across
# $(HWTS_DOMAINS) (default 1,2,4,8) worker domains.  The adaptive series
# carries a per-structure adaptive_margin verdict (worst ratio vs the
# better fixed provider at each point).
# 100k-op legs and 5 trials: a 20k-op leg lasts ~40ms — a handful of
# scheduler quanta on a single-vCPU box, so one preemption swings a leg
# by 25%+ and median-of-3 cannot reject it; the adaptive_margin verdict
# needs legs long enough to average over the quanta.
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

# The adaptive provider exercised end to end: an update-heavy scaling
# sweep (contention is what makes it migrate) with the sweep's margin
# verdicts, then the torture oracle over every structure with forced
# mid-round migrations.
bench-adaptive: build
	dune exec bench/scaling.exe -- -mix 50-10-40 -ops 100000 \
	  -warmup 10000 -trials 5 -out /tmp/adaptive_scaling.json
	dune exec test/validate_metrics.exe -- /tmp/adaptive_scaling.json
	dune exec bin/hwts_cli.exe -- check --provider adaptive --rounds 8

# CI-shaped fast pass over the same paths.
bench-adaptive-smoke: build
	dune exec bin/hwts_cli.exe -- check --provider adaptive --rounds 2 \
	  --seed 0xADA97
	dune exec bin/hwts_cli.exe -- run bst-vcas --provider adaptive \
	  --seconds 0.2 --threads 4 --metrics-out /tmp/adaptive_obs.json
	dune exec test/validate_metrics.exe -- /tmp/adaptive_obs.json

clean:
	dune clean
