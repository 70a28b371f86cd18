#!/bin/sh
# Assert the warm-start invariants recorded in a perf record (make
# warm-quick writes _build/BENCH_perf.warm.json) that contains a
# warm-failures workload (see bench/perf.ml):
#
#   repair_identical      == true   repaired path pools bit-identical to
#                                   scratch re-enumeration on every variant
#   brackets_certified    == true   every warm and cold bracket closed
#                                   within its tolerance
#   agreement             == "ok"   warm and cold brackets overlap per variant
#   speedup_warm_vs_cold  >= MIN    warm sweep actually pays for itself
#
# Field extraction is plain grep/awk over the flat workload object — no
# JSON tooling required on the CI runner.
set -eu

bench="${1:-BENCH_perf.json}"
min="${2:-2.0}"

[ -s "$bench" ] || { echo "check_warm: $bench missing or empty"; exit 1; }

speedup=$(grep -o '"speedup_warm_vs_cold": *[0-9.eE+-]*' "$bench" | head -1 \
  | sed 's/.*: *//')
identical=$(grep -o '"repair_identical": *[a-z]*' "$bench" | head -1 \
  | grep -o '[a-z]*$')
certified=$(grep -o '"brackets_certified": *[a-z]*' "$bench" | head -1 \
  | grep -o '[a-z]*$')
agreement=$(grep -o '"agreement": *"[a-zA-Z]*"' "$bench" | head -1 \
  | sed 's/.*"\([a-zA-Z]*\)"$/\1/')

[ -n "$speedup" ] && [ -n "$identical" ] && [ -n "$certified" ] && [ -n "$agreement" ] \
  || { echo "check_warm: $bench has no warm-failures workload (run make warm-quick)"; exit 1; }

echo "check_warm: speedup=$speedup (min $min) repair_identical=$identical" \
  "brackets_certified=$certified agreement=$agreement"

fail=0
[ "$identical" = "true" ] \
  || { echo "check_warm: FAIL: repaired pools differ from scratch enumeration"; fail=1; }
[ "$certified" = "true" ] \
  || { echo "check_warm: FAIL: a bracket failed to close within tolerance"; fail=1; }
[ "$agreement" = "ok" ] \
  || { echo "check_warm: FAIL: warm and cold brackets disagree"; fail=1; }
awk "BEGIN { exit !($speedup >= $min) }" \
  || { echo "check_warm: FAIL: speedup $speedup below required $min"; fail=1; }

[ "$fail" -eq 0 ] && echo "check_warm: OK"
exit "$fail"
