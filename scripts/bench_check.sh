#!/usr/bin/env bash
# Bench regression gate: compare a freshly generated BENCH_results.json
# against the committed baseline.
#
#   bash scripts/bench_check.sh BASELINE.json FRESH.json
#
# Semantic keys — experiment statuses, report digests, determinism /
# bit-identity booleans, prop and prune counts, fuzz failure counts —
# must match exactly; a mismatch fails the gate (exit 1).  Timing fields
# are compared warn-only: a slowdown prints a warning but never fails,
# since CI runners vary.  Only keys present in BOTH files are compared,
# so the baseline may carry more (or fewer) experiments than the run
# under test without tripping the gate.
set -euo pipefail

baseline="${1:-}"
fresh="${2:-}"
if [ -z "$baseline" ] || [ -z "$fresh" ]; then
  echo "usage: bench_check.sh BASELINE.json FRESH.json" >&2
  exit 2
fi
for f in "$baseline" "$fresh"; do
  if ! jq -e . "$f" >/dev/null 2>&1; then
    echo "bench_check: $f is missing or not valid JSON" >&2
    exit 2
  fi
done

# Project "key<TAB>value" lines of the semantic (must-match) surface.
project_semantic() {
  jq -r '
    def kv($k; $v): select($v != null) | "\($k)\t\($v | tojson)";
    [
      (.experiments[]? | kv("experiment.\(.id).status"; .status)),
      (.experiments[]? | select(.id != "micro")
        | kv("experiment.\(.id).props"; .props)),
      (.parallel? // empty
        | kv("parallel.deterministic"; .deterministic),
          kv("parallel.mupath_props"; .mupath_props),
          kv("parallel.flow_props"; .flow_props)),
      (.cache? // empty
        | kv("cache.bit_identical"; .bit_identical),
          kv("cache.report_digest"; .report_digest),
          kv("cache.checker_calls"; .checker_calls),
          kv("cache.warm_hits"; .warm_hits)),
      (.static_prune? // empty
        | kv("static_prune.digest_identical"; .digest_identical),
          kv("static_prune.report_digest"; .report_digest),
          kv("static_prune.covers_pruned"; .covers_pruned),
          kv("static_prune.duv_props_on"; .duv_props_on),
          kv("static_prune.duv_props_off"; .duv_props_off)),
      (.static_flow? // empty
        | kv("static_flow.digest_identical"; .digest_identical),
          kv("static_flow.report_digest"; .report_digest),
          kv("static_flow.covers_pruned"; .covers_pruned),
          kv("static_flow.flow_props"; .flow_props)),
      (.sat? // empty
        | kv("sat.digest_identical"; .digest_identical),
          kv("sat.report_digest"; .report_digest)),
      (.obs? // empty
        | kv("obs.digest_identical"; .digest_identical),
          kv("obs.events"; .events)),
      (.absint? // empty
        | kv("absint.digest_identical"; .digest_identical),
          kv("absint.report_digest"; .report_digest),
          kv("absint.covers_pruned"; .covers_pruned),
          kv("absint.pruned_static"; .pruned_static),
          kv("absint.kb_set_identical"; .kb_set_identical)),
      (.fuzz? // empty
        | kv("fuzz.seed"; .seed),
          kv("fuzz.designs"; .designs),
          kv("fuzz.failures"; .failures),
          kv("fuzz.skipped"; .skipped),
          kv("fuzz.checker_props"; .checker_props),
          kv("fuzz.pruned_static"; .pruned_static),
          kv("fuzz.netlist_digests"; .netlist_digests)),
      (.frontend? // empty
        | kv("frontend.designs"; .designs),
          kv("frontend.roundtrip_identical"; .roundtrip_identical),
          kv("frontend.warnings"; .warnings),
          kv("frontend.netlist_digests"; .netlist_digests),
          kv("frontend.run_identical"; .run_identical),
          kv("frontend.run_digest"; .run_digest)),
      (.sweep? // empty
        | kv("sweep.comb_nodes"; .comb_nodes),
          kv("sweep.merged"; .merged),
          kv("sweep.classes"; .classes),
          kv("sweep.digest_identical"; .digest_identical),
          kv("sweep.report_digest"; .report_digest),
          kv("sweep.sem_hits"; .sem_hits),
          kv("sweep.sem_misses"; .sem_misses),
          kv("sweep.sem_identical"; .sem_identical))
    ] | .[]
  ' "$1"
}

# Project "key<TAB>seconds" timing lines (warn-only surface).
project_timing() {
  jq -r '
    def kv($k; $v): select($v != null) | "\($k)\t\($v)";
    [
      kv("total_time_s"; .total_time_s),
      (.experiments[]? | kv("experiment.\(.id).time_s"; .time_s)),
      (.cache? // empty | kv("cache.t_warm_s"; .t_warm_s)),
      (.sweep? // empty
        | kv("sweep.t_off_s"; .t_off_s),
          kv("sweep.t_on_s"; .t_on_s)),
      (.fuzz? // empty | kv("fuzz.t_total_s"; .t_total_s)),
      (.frontend? // empty
        | kv("frontend.t_export_s"; .t_export_s),
          kv("frontend.t_import_s"; .t_import_s),
          kv("frontend.t_run_s"; .t_run_s))
    ] | .[]
  ' "$1"
}

fail=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

project_semantic "$baseline" | sort >"$tmp/base.sem"
project_semantic "$fresh" | sort >"$tmp/fresh.sem"

echo "== bench_check: semantic comparison =="
compared=0
while IFS=$'\t' read -r key bval; do
  fval="$(awk -F'\t' -v k="$key" '$1 == k { print $2 }' "$tmp/fresh.sem")"
  [ -z "$fval" ] && continue  # key absent in fresh run: not compared
  compared=$((compared + 1))
  if [ "$bval" != "$fval" ]; then
    echo "MISMATCH  $key: baseline=$bval fresh=$fval"
    fail=1
  fi
done <"$tmp/base.sem"
echo "compared $compared semantic key(s)"
if [ "$compared" -eq 0 ]; then
  echo "bench_check: no overlapping semantic keys — wrong experiment set?" >&2
  fail=1
fi

echo "== bench_check: timing comparison (warn-only) =="
project_timing "$baseline" | sort >"$tmp/base.t"
project_timing "$fresh" | sort >"$tmp/fresh.t"
while IFS=$'\t' read -r key bval; do
  fval="$(awk -F'\t' -v k="$key" '$1 == k { print $2 }' "$tmp/fresh.t")"
  [ -z "$fval" ] && continue
  awk -v b="$bval" -v f="$fval" -v k="$key" 'BEGIN {
    if (b > 0.5 && f > b * 1.5)
      printf "warning: %s slowed down: baseline=%.3fs fresh=%.3fs (%.2fx)\n", k, b, f, f / b
  }'
done <"$tmp/base.t"

if [ "$fail" -ne 0 ]; then
  echo "bench_check: FAILED (semantic drift against the committed baseline)"
  exit 1
fi
echo "bench_check: OK"
