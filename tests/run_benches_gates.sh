#!/usr/bin/env bash
# Pins the verdicts and record layout of tools/run_benches.sh against stub
# bench binaries and a stand-in vosim_cli:
#   - every gated reading passes at its bound and fails just past it;
#   - a missing line fails, and so does nan, inf or -nan;
#   - a bench that exits nonzero fails without its readings being gated;
#   - every BENCH record keeps its key names in their order.
#
# Usage: tests/run_benches_gates.sh [path/to/run_benches.sh]
set -u

script="${1:-$(dirname "$0")/../tools/run_benches.sh}"
tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT
# The script copies its records to the directory above its own, so it
# runs from a private tree whose "repo root" is the temp dir.
mkdir -p "${tmp}/tools" "${tmp}/build"
cp "${script}" "${tmp}/tools/run_benches.sh"
build="${tmp}/build"
out="${tmp}/out.txt"

# bench | log key | op | reading at the bound | reading just past it.
# "record" rows are required but unbounded; "text" is a string.
rows=(
  "bench_fig8_ber_energy LEVELIZED_SPEEDUP >= 5 4.99"
  "bench_fig8_ber_energy LEVELIZED_BER_DEV_PP <= 2.0 2.01"
  "bench_table3_multiplier LEVELIZED_SPEEDUP >= 5 4.99"
  "bench_table3_multiplier LEVELIZED_BER_DEV_PP <= 2.0 2.01"
  "bench_pipeline SEQ_LEVELIZED_SPEEDUP >= 10 9.99"
  "bench_pipeline SEQ_BER_DEV_PP <= 2.0 2.01"
  "bench_pipeline CLOSED_LOOP_SAVINGS_PCT >= 10 9.99"
  "bench_pipeline PROVENANCE_OVERHEAD_PCT <= 2 2.01"
  "bench_fig5_ber_bitpos FIG5_PROV_DEV_PP <= 0.5 0.51"
  "bench_ext_app_pareto MODEL_QUALITY_DEV <= 35 35.01"
  "bench_ext_app_pareto MODEL_QUALITY_DEV_MEAN record 2.673 -"
  "bench_perf_speedup SIMD_COMPILED text avx2 -"
  "bench_perf_speedup PROVENANCE_OVERHEAD_PCT <= 2 2.01"
  "bench_perf_speedup LEVELIZED_SCALAR_VS_EVENT record 0.62 -"
  "bench_fleet FLEET_THROUGHPUT >= 20 19.99"
  "bench_fleet FLEET_PARALLEL_EFFICIENCY record 0.72 -"
  "bench_fleet FLEET_ENERGY_SPREAD_PCT record 1.9 -"
)
common="bench patterns_per_triad wall_seconds exit_code timestamp_utc log"
declare -A fields=(
  [bench_fig8_ber_energy]="levelized_speedup levelized_ber_dev_pp"
  [bench_table3_multiplier]="levelized_speedup levelized_ber_dev_pp"
  [bench_pipeline]="seq_levelized_speedup seq_ber_dev_pp closed_loop_savings_pct provenance_overhead_pct"
  [bench_fig5_ber_bitpos]="fig5_prov_dev_pp"
  [bench_ext_app_pareto]="model_quality_dev_pp model_quality_dev_mean_pp"
  [bench_perf_speedup]="simd_compiled provenance_overhead_pct levelized_scalar_vs_event"
  [bench_fleet]="fleet_throughput_cps fleet_parallel_efficiency fleet_energy_spread_pct"
  [bench_table1_prob_table]=""
)

fails=0
# expect pass|fail DESC CMD...: runs CMD and compares its verdict.
expect() {
  local want="$1" desc="$2" got=fail
  shift 2
  "$@" && got=pass
  if [ "${got}" = "${want}" ]; then
    echo "ok - ${desc}"
  else
    echo "not ok - ${desc} (${got}, expected ${want})"
    sed 's/^/    /' "${out}"
    fails=$((fails + 1))
  fi
}

# The keys of a BENCH record, in order, on one line.
keys() { sed -n 's/^  "\([a-z0-9_]*\)": .*/\1/p' "$1" | tr '\n' ' ' | sed 's/ $//'; }

# has_keys FILE KEYS...: FILE is valid JSON with exactly KEYS in order.
has_keys() {
  local file="$1" want
  shift
  want=$(echo "$*" | tr -s ' ' | sed 's/^ //; s/ $//')
  if command -v python3 >/dev/null 2>&1 &&
     ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "${file}" >>"${out}" 2>&1; then
    return 1
  fi
  [ "$(keys "${file}")" = "${want}" ] || {
    echo "keys: $(keys "${file}")" >>"${out}"
    echo "want: ${want}" >>"${out}"
    return 1
  }
}

# bench_run BENCH [KEY VALUE]: the stub prints every reading of BENCH at
# its bound (KEY as VALUE instead; an empty VALUE drops the line) and a
# metrics line; the script's verdict on it.
bench_run() {
  local bench="$1" key="${2:-}" value="${3-}" row b k op at past v
  for row in "${rows[@]}"; do
    read -r b k op at past <<<"${row}"
    [ "${b}" = "${bench}" ] || continue
    v="${at}"
    [ "${k}" != "${key}" ] || v="${value}"
    [ -z "${v}" ] || echo "${k} ${v}"
  done >"${build}/${bench}.lines"
  echo 'BENCH_METRICS_JSON {"counters":{},"gauges":{},"histograms":{}}' \
    >>"${build}/${bench}.lines"
  if [ ! -x "${build}/${bench}" ]; then
    printf '#!/bin/sh\ncat "$0.lines"\nexit "$(cat "$0.code" 2>/dev/null || echo 0)"\n' \
      >"${build}/${bench}"
    chmod +x "${build}/${bench}"
  fi
  VOSIM_PATTERNS=200 "${tmp}/tools/run_benches.sh" "${build}" "${bench}" >"${out}" 2>&1
}

for bench in "${!fields[@]}"; do
  expect pass "${bench}: every reading at its bound passes" bench_run "${bench}"
  expect pass "${bench}: record keys and order" \
    has_keys "${build}/BENCH_${bench#bench_}.json" "${common} ${fields[${bench}]} metrics"
done

for row in "${rows[@]}"; do
  read -r b k op at past <<<"${row}"
  expect fail "${b}: missing ${k} fails" bench_run "${b}" "${k}" ""
  if [ "${past}" != - ]; then
    expect fail "${b}: ${k} ${past} (past ${op} ${at}) fails" bench_run "${b}" "${k}" "${past}"
  fi
  if [ "${op}" != text ]; then
    for v in nan inf -nan; do
      expect fail "${b}: ${k} ${v} fails" bench_run "${b}" "${k}" "${v}"
    done
  fi
done

# A bench that exits nonzero is failed; its readings are neither gated
# nor recorded.
echo 3 >"${build}/bench_fig8_ber_energy.code"
expect fail "nonzero exit fails the bench" bench_run bench_fig8_ber_energy LEVELIZED_SPEEDUP 1
expect pass "nonzero exit: no gate fields, exit code kept" eval \
  'has_keys "${build}/BENCH_fig8_ber_energy.json" "${common} metrics" &&
   grep -q "\"exit_code\": 3" "${build}/BENCH_fig8_ber_energy.json" &&
   ! grep -q "FAIL bench_fig8_ber_energy:" "${out}"'
rm -f "${build}/bench_fig8_ber_energy.code"

# Stand-in vosim_cli: "campaign" stores one stub cell per chip of its
# shard (--shard i/N) unless the store already holds them, sleeps
# FAKE_SINGLE_S unsharded or FAKE_SHARD_S sharded (a list: one sleep per
# fleet_shard pair, cycled), and reports how many cells it found stored;
# "merge-store OUT IN..." sorts the inputs into OUT. An unsharded run
# starts the next pair; in pair FAKE_BAD_PAIR the shard merge gains a
# stray line.
cat >"${build}/vosim_cli" <<'EOF'
#!/usr/bin/env bash
cmd="$1"
shift
pair_file="$0.pair"
pair=$(cat "${pair_file}" 2>/dev/null || echo 0)
if [ "${cmd}" = merge-store ]; then
  dst="$1"
  shift
  ins=()
  for a in "$@"; do [ "${a}" = --strip-timing ] || ins+=("${a}"); done
  sort "${ins[@]}" >"${dst}"
  if [ "${dst}" = merged.jsonl ] && [ "${pair}" = "${FAKE_BAD_PAIR:-}" ]; then
    echo stray >>"${dst}"
  fi
  exit
fi
chips=8 store="" shard=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --chips) chips="$2" ;;
    --store) store="$2" ;;
    --shard) shard="$2" ;;
    --trace) echo '{"traceEvents":[]}' >"$2" ;;
    --metrics-json) echo '{"counters":{"provenance.campaign.cells":1}}' >"$2" ;;
  esac
  shift
done
if [ -z "${shard}" ]; then
  echo $((pair + 1)) >"${pair_file}"
  sleep "${FAKE_SINGLE_S:-0}"
else
  read -r -a naps <<<"${FAKE_SHARD_S:-0}"
  sleep "${naps[$(((pair - 1) % ${#naps[@]}))]}"
fi
reused=0
if [ -s "${store}" ]; then
  reused=$(wc -l <"${store}")
else
  seq 0 $((chips - 1)) | awk -v s="${shard:-0/1}" \
    'BEGIN{split(s, p, "/")} $1 % p[2] == p[1] {print "{\"chip\":" $1 "}"}' >"${store}"
fi
echo "campaign: $(wc -l <"${store}") cells (${reused} reused, 0 computed)"
EOF
chmod +x "${build}/vosim_cli"
pseudo_run() {
  rm -f "${build}/vosim_cli.pair"
  VOSIM_PATTERNS=200 "${tmp}/tools/run_benches.sh" "${build}" "$1" >"${out}" 2>&1
}

expect pass "campaign_smoke: resume passes" pseudo_run campaign_smoke
expect pass "campaign_smoke: record keys and order" has_keys \
  "${build}/BENCH_campaign_smoke.json" "${common} grid_cells resumed_cells" \
  "cache_hit_rate trace store provenance_store provenance_metrics telemetry"

# The gated efficiency is the median of 3 pairs: one slow sharded run
# among them does not fail it.
export FAKE_SINGLE_S=0.8 FAKE_SHARD_S="0.2 0.8 0.2"
expect pass "fleet_shard: efficiency ~1 in 2 of 3 pairs passes" pseudo_run fleet_shard
expect pass "fleet_shard: record keys and order" has_keys \
  "${build}/BENCH_fleet_shard.json" bench chips shards pairs grid_cells \
  single_process_seconds sharded_wall_seconds pair_efficiencies \
  shard_efficiency wall_seconds exit_code timestamp_utc log store
expect pass "fleet_shard: one reading per pair" \
  grep -q '"pair_efficiencies": \[[0-9.]*,[0-9.]*,[0-9.]*\]' \
  "${build}/BENCH_fleet_shard.json"
# Four shard processes only run in parallel on >= 4 cores; below that the
# efficiency is recorded, not gated.
export FAKE_SINGLE_S=0.2 FAKE_SHARD_S=0.8
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
  expect fail "fleet_shard: efficiency ~0.06 fails on >= 4 cores" pseudo_run fleet_shard
else
  expect pass "fleet_shard: efficiency ~0.06 only noted on < 4 cores" pseudo_run fleet_shard
fi
# Every pair's merge is compared, not only the last one's.
export FAKE_SINGLE_S=0 FAKE_SHARD_S=0 FAKE_BAD_PAIR=2
expect fail "fleet_shard: a merge differing in pair 2 fails" pseudo_run fleet_shard
expect pass "fleet_shard: the differing pair is named" \
  grep -q "FAIL fleet_shard: pair 2: 4-shard merge differs" "${out}"
unset FAKE_SINGLE_S FAKE_SHARD_S FAKE_BAD_PAIR

mv "${build}/vosim_cli" "${build}/vosim_cli.off"
expect fail "serve_smoke: missing vosim_cli fails" pseudo_run serve_smoke
expect pass "serve_smoke: record keys and order" has_keys \
  "${build}/BENCH_serve_smoke.json" bench served_cells wall_seconds exit_code \
  timestamp_utc log

echo "${fails} failed"
[ "${fails}" -eq 0 ]
