#!/usr/bin/env bash
# Alternating pairs of the served-request benchmark: a base revision
# against the working tree.  Run from the repository root:
#
#   bash bench/pairs.sh BASE WORKLOAD|all [PAIRS] [-- HWTS_BENCH_ARGS...]
#   make e2e-pairs BASE=<rev> WORKLOAD=<name|all> [PAIRS=10]
#
# WORKLOAD `all` runs the pairs for every workload BENCHMARK.json
# declares, one workload after the other.
#
# Both sides are built from source in temporary checkouts under $TMPDIR:
# BASE from `git archive`, the working tree (uncommitted and untracked
# files included, ignored ones not) from `git ls-files`.  Each pair runs
# `hwts_bench --workload WORKLOAD HWTS_BENCH_ARGS` once per side, at
# hwts_bench's own run length unless the pass-through sets `--seconds`;
# the side that runs first alternates from pair to pair, so a drift of
# the machine during the run lands on both sides equally.
#
# Prints one line per run, then, per workload and for `setup_s` and
# `server_rss_mb` (lower is better for both), the median and quartiles
# [q1–q3] of each side and the number of pairs the working tree won.
# The same follows for metrics BENCHMARK.json does not gate, labeled
# "ungated": `req_per_s` (higher is better), `p50_us` and `p99_us`
# (lower is better), read from each run's --out JSON, and `minor_gcs`,
# `heap_words`, `promoted_words` and `top_heap_words` (lower is better
# for all four), the server's `gc.minor_collections`, `gc.heap_words`,
# `gc.promoted_words` and `gc.top_heap_words` at shutdown, read from each
# repetition's `<workload>.rep*.metrics.jsonl` and averaged over the
# run's repetitions (each on a fresh server).  Last, per workload, how
# many runs of each side reported `valid=false` (an open-loop run whose
# generator fell behind its schedule; ungated).
# The bench/e2e README's rule for a claimed gain is: won in at least 9
# of 10 pairs, and the medians differ by more than the base's quartile
# spread.  Exits 1 if any run failed a request or did not finish.
set -euo pipefail

if [ $# -lt 2 ] || [ ! -f dune-project ] || [ ! -d bench/e2e ]; then
  echo "usage (from the repository root): bash bench/pairs.sh BASE WORKLOAD|all [PAIRS] [-- HWTS_BENCH_ARGS]" >&2
  exit 2
fi
base=$1
workload=$2
pairs=10
shift 2
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
  pairs=$1
  shift
fi
[ "${1:-}" = "--" ] && shift
extra=("$@")
if [ "$workload" = all ]; then
  workloads=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json)
else
  workloads=$workload
fi

rev=$(git rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/hwts-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/tree"

git archive "$rev" | tar -x -C "$tmp/base"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do
    if [ -e "$f" ]; then printf '%s\0' "$f"; fi
  done |
  tar --null -T - -cf - | tar -x -C "$tmp/tree"

for side in base tree; do
  echo "building $side" >&2
  (cd "$tmp/$side" &&
    DUNE_CACHE=disabled dune build --root . ./bin/hwts_serve.exe \
      ./bench/e2e/hwts_bench.exe 1>&2)
done

# gauge_mean WORKLOAD SIDE NAME: a server gauge's value at shutdown,
# averaged over the last run's repetitions ("nan" when none has it).
gauge_mean() {
  cat "$tmp/out-$2/$1".rep*.metrics.jsonl 2>/dev/null |
    sed -n "s/.*\"name\":\"$3\".*\"value\":\([0-9.]*\).*/\1/p" |
    awk '{ s += $1; n++ } END { if (n) print s / n; else print "nan" }'
}

# run WORKLOAD SIDE PAIR: one benchmark run; appends "workload pair side
# setup rss failed req_per_s p50_us minor_gcs heap_words p99_us invalid
# promoted_words top_heap_words" to $tmp/runs, invalid being 1 when the
# run reported valid=false.
run() {
  local workload=$1 side=$2 pair=$3 out
  rm -f "$tmp/out-$side/$workload".rep*.metrics.jsonl
  out=$(cd "$tmp/$side" &&
    ./_build/default/bench/e2e/hwts_bench.exe --workload "$workload" \
      --out "$tmp/out-$side" ${extra[@]+"${extra[@]}"}) || {
    echo "pair $pair: $side run exited non-zero" >&2
    echo "$workload $pair $side nan nan 1 nan nan nan nan nan 1 nan nan" >>"$tmp/runs"
    return
  }
  local setup rss failed rps p50 p99 invalid gcs heap promoted top json=$tmp/out-$side/$workload.json
  setup=$(awk -v w="$workload" '$1 == w && $2 == "setup_s" { print $3 }' <<<"$out")
  rss=$(awk -v w="$workload" '$1 == w && $2 == "server_rss_mb" { print $3 }' <<<"$out")
  failed=$(tail -n 1 <<<"$out" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
  rps=$(sed -n 's/.*"req_per_s":{"median":\([^,]*\),.*/\1/p' "$json")
  p50=$(sed -n 's/.*"p50_us":{"median":\([^,]*\),.*/\1/p' "$json")
  p99=$(sed -n 's/.*"p99_us":{"median":\([^,]*\),.*/\1/p' "$json")
  invalid=1
  grep -q '"valid":true' "$json" && invalid=0
  gcs=$(gauge_mean "$workload" "$side" gc.minor_collections)
  heap=$(gauge_mean "$workload" "$side" gc.heap_words)
  promoted=$(gauge_mean "$workload" "$side" gc.promoted_words)
  top=$(gauge_mean "$workload" "$side" gc.top_heap_words)
  echo "$workload $pair $side ${setup:-nan} ${rss:-nan} ${failed:-1} ${rps:-nan} ${p50:-nan} ${gcs:-nan} ${heap:-nan} ${p99:-nan} $invalid ${promoted:-nan} ${top:-nan}" >>"$tmp/runs"
  printf 'pair %2d %-4s setup_s %-8s server_rss_mb %-8s failed %s  req_per_s %-8.0f p50_us %-8.1f p99_us %-8.1f valid %-5s minor_gcs %-6.1f heap_words %-10.0f promoted_words %-10.0f top_heap_words %-10.0f (ungated)\n' \
    "$pair" "$side" "${setup:-nan}" "${rss:-nan}" "${failed:-?}" "${rps:-nan}" "${p50:-nan}" "${p99:-nan}" \
    "$([ "$invalid" = 0 ] && echo true || echo false)" "${gcs:-nan}" "${heap:-nan}" "${promoted:-nan}" "${top:-nan}"
}

for w in $workloads; do
  [ "$w" = "$workload" ] || echo "== $w"
  for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
      run "$w" base "$p"
      run "$w" tree "$p"
    else
      run "$w" tree "$p"
      run "$w" base "$p"
    fi
  done
done

# quartiles WORKLOAD COLUMN SIDE: "median q1 q3" of one metric on one
# side, with linear interpolation between order statistics.
quartiles() {
  awk -v w="$1" -v c="$2" -v s="$3" '$1 == w && $3 == s { print $c }' "$tmp/runs" | sort -g |
    awk '
      function q(f,   h, i) {
        h = (NR - 1) * f; i = int(h)
        return i + 1 < NR ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[i]
      }
      { a[NR - 1] = $1 }
      END { print q(0.5), q(0.25), q(0.75) }'
}

for w in $workloads; do
  echo "$w: $pairs pairs, base $(git rev-parse --short "$rev") vs working tree${extra[*]+, args: ${extra[*]}}"
  # name:column:sign[:label], sign -1 where higher is better
  for metric in setup_s:4:1 server_rss_mb:5:1 req_per_s:7:-1:ungated p50_us:8:1:ungated \
    p99_us:11:1:ungated minor_gcs:9:1:ungated heap_words:10:1:ungated \
    promoted_words:13:1:ungated top_heap_words:14:1:ungated; do
    IFS=: read -r name col sign label <<<"$metric"
    read -r bm b1 b3 <<<"$(quartiles "$w" "$col" base)"
    read -r tm t1 t3 <<<"$(quartiles "$w" "$col" tree)"
    won=$(awk -v w="$w" -v c="$col" -v s="$sign" '
        $1 != w { next } $3 == "base" { b[$2] = $c } $3 == "tree" { t[$2] = $c }
        END { for (p in b) if (s * t[p] < s * b[p]) n++; print n + 0 }' "$tmp/runs")
    awk -v n="$name" -v bm="$bm" -v b1="$b1" -v b3="$b3" -v tm="$tm" \
      -v t1="$t1" -v t3="$t3" -v won="$won" -v pairs="$pairs" -v l="${label:+  ($label)}" 'BEGIN {
        printf "%-14s base %.4g [%.4g-%.4g]  tree %.4g [%.4g-%.4g]  change %+.1f%%  pairs won %d/%d%s\n",
          n, bm, b1, b3, tm, t1, t3, 100 * (tm / bm - 1), won, pairs, l }'
  done
  awk -v w="$w" '$1 == w { n[$3] += $12; r[$3]++ }
    END { printf "valid=false   base %d/%d runs  tree %d/%d runs  (ungated)\n", n["base"], r["base"], n["tree"], r["tree"] }' "$tmp/runs"
done
failed=$(awk '{ n += $6 } END { print n + 0 }' "$tmp/runs")
echo "failed requests: $failed"
[ "$failed" -eq 0 ]
