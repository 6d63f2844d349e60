#!/usr/bin/env bash
# Runs the vosim benchmark binaries and emits one machine-readable
# BENCH_<name>.json per bench with wall-clock time, pattern budget, exit
# status and the readings of the gate table below.
#
# Usage:
#   tools/run_benches.sh [BUILD_DIR] [BENCH_NAME...]
#
#   BUILD_DIR     directory containing the bench_* binaries (default: build)
#   BENCH_NAME    optional subset, e.g. "bench_fig5_ber_bitpos" or a
#                 pseudo-bench below; default is every bench_* binary
#                 found in BUILD_DIR plus every pseudo-bench.
#
# Environment:
#   VOSIM_PATTERNS   patterns per triad (default 200 here; the binaries
#                    themselves default to the paper's 20000).
#   VOSIM_BENCH_OUT  output directory for BENCH_*.json and bench CSVs
#                    (default: BUILD_DIR).
#
# Every bench binary prints one BENCH_METRICS_JSON line at exit (the
# process-wide telemetry snapshot, src/obs); it is folded into the
# bench's BENCH_*.json as a "metrics" object.
#
# Three pseudo-benches drive vosim_cli instead of a bench_* binary:
#   campaign_smoke  a tiny store-backed campaign run twice; the second
#                   pass must resume every cell from the JSONL store and
#                   its --trace/--metrics-json files must be valid JSON;
#                   a gate-level --provenance pass must publish its
#                   counters (DESIGN.md §9, §12, §13).
#   fleet_shard     a 1000-chip fleet campaign run single-process and as
#                   4 concurrent shard processes; the merged shard stores
#                   must be bit-identical to the canonicalized
#                   single-process store (DESIGN.md §11).
#   serve_smoke     the vosim_cli daemon on a Unix socket answers two
#                   concurrent campaign requests; the streamed cells must
#                   be bit-identical to the same grids run offline. A
#                   Python client (skipped without python3) then sends
#                   json.dumps requests and parses every answer with
#                   json.loads; its campaign cells must match too.
#
# Finally the BENCH_*.json set is copied to the repo root so the perf
# trajectory is tracked in-tree.
set -u

build_dir="${1:-build}"
shift 2>/dev/null || true

if [ ! -d "${build_dir}" ]; then
  echo "error: build dir '${build_dir}' not found (run cmake first)" >&2
  exit 2
fi

build_dir="$(cd "${build_dir}" && pwd)"
export VOSIM_PATTERNS="${VOSIM_PATTERNS:-200}"
out_dir="${VOSIM_BENCH_OUT:-${build_dir}}"
mkdir -p "${out_dir}"
out_dir="$(cd "${out_dir}" && pwd)"
cli="${build_dir}/vosim_cli"

# The 4 shard processes time-share a machine with fewer cores, so there
# the shard efficiency is recorded, not gated.
fs_shards=4
cores=$(nproc 2>/dev/null || echo 1)
shard_op=">="
[ "${cores}" -ge "${fs_shards}" ] || shard_op=record

# ---- the gate table: the one place bounds live ----
# bench | log key | BENCH json field | op | bound. A bench's rows write
# their fields in table order from the last "KEY value" line of its log.
# ">=" is a floor, "<=" a ceiling, "record" a reading without a bound,
# "text" a string. A missing line or a reading that is not a finite
# decimal fails the bench on every row and is recorded as null.
gates=(
  # Levelized-vs-event speedup and RCA8 BER deviation of the Fig. 8
  # adder sweep on both engines.
  "bench_fig8_ber_energy|LEVELIZED_SPEEDUP|levelized_speedup|>=|5"
  "bench_fig8_ber_energy|LEVELIZED_BER_DEV_PP|levelized_ber_dev_pp|<=|2.0"
  # The same two for the mul8 array/Wallace Table III sweep.
  "bench_table3_multiplier|LEVELIZED_SPEEDUP|levelized_speedup|>=|5"
  "bench_table3_multiplier|LEVELIZED_BER_DEV_PP|levelized_ber_dev_pp|<=|2.0"
  # Batched levelized clocked sweep over the event engine.
  "bench_pipeline|SEQ_LEVELIZED_SPEEDUP|seq_levelized_speedup|>=|10"
  # Cross-engine step_cycle BER deviation over the error-onset band.
  "bench_pipeline|SEQ_BER_DEV_PP|seq_ber_dev_pp|<=|2.0"
  # Closed-loop energy saving against the guard-banded safest rung.
  "bench_pipeline|CLOSED_LOOP_SAVINGS_PCT|closed_loop_savings_pct|>=|10"
  # Observers-off noise floor of the clocked batched path (DESIGN.md §13).
  "bench_pipeline|PROVENANCE_OVERHEAD_PCT|provenance_overhead_pct|<=|2"
  # Attribution-derived vs output-diff per-bit BER; exact by
  # construction, so 0.5 pp is float-print slack (DESIGN.md §13).
  "bench_fig5_ber_bitpos|FIG5_PROV_DEV_PP|fig5_prov_dev_pp|<=|0.5"
  # Model-vs-gate-level application quality deviation, max and mean,
  # in normalized quality pp.
  "bench_ext_app_pareto|MODEL_QUALITY_DEV|model_quality_dev_pp|<=|35"
  "bench_ext_app_pareto|MODEL_QUALITY_DEV_MEAN|model_quality_dev_mean_pp|record|"
  # SIMD tier the build compiled for: a host fingerprint.
  "bench_perf_speedup|SIMD_COMPILED|simd_compiled|text|"
  # Observers-off noise floor of the event engine sweep.
  "bench_perf_speedup|PROVENANCE_OVERHEAD_PCT|provenance_overhead_pct|<=|2"
  # Engine-step rung: levelized over event scalar apply cost, rca16 at
  # the deepest ladder corner (median of interleaved reps).
  "bench_perf_speedup|LEVELIZED_SCALAR_VS_EVENT|levelized_scalar_vs_event|record|"
  # Fleet serving-phase chips/s: the per-chip closed-loop path.
  "bench_fleet|FLEET_THROUGHPUT|fleet_throughput_cps|>=|20"
  # In-process parallel efficiency and fleet-wide energy spread.
  "bench_fleet|FLEET_PARALLEL_EFFICIENCY|fleet_parallel_efficiency|record|"
  "bench_fleet|FLEET_ENERGY_SPREAD_PCT|fleet_energy_spread_pct|record|"
  # Resumed share of the second campaign pass; the resume check is the
  # gate.
  "campaign_smoke|CACHE_HIT_RATE|cache_hit_rate|record|"
  # 4-shard parallel efficiency, gated on >= 4 cores only.
  "fleet_shard|SHARD_EFFICIENCY|shard_efficiency|${shard_op}|0.7"
)
num_re='^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$'

# Seconds between two `date +%s%N` stamps.
secs() { awk -v a="$1" -v b="$2" 'BEGIN{printf "%.3f", (b-a)/1e9}'; }
# One ',\n  "KEY": VALUE' record fragment.
kv() { printf ',\n  "%s": %s' "$1" "$2"; }

# check NAME KEY VALUE OP BOUND: succeeds when VALUE is present, a finite
# decimal (any string for "text") and within OP BOUND; else says why.
check() {
  local name="$1" key="$2" v="$3" op="$4" bound="$5"
  if [ -z "${v}" ]; then
    echo "FAIL ${name}: missing ${key} in log" >&2
  elif [ "${op}" = text ]; then
    return 0
  elif ! [[ "${v}" =~ ${num_re} ]]; then
    echo "FAIL ${name}: ${key} '${v}' is not a finite number" >&2
  elif [ "${op}" = record ] || awk -v v="${v}" -v b="${bound}" -v op="${op}" \
      'BEGIN{exit !(op == ">=" ? v + 0 >= b + 0 : op == "<=" && v + 0 <= b + 0)}'; then
    return 0
  else
    echo "FAIL ${name}: ${key} ${v} violates ${op} ${bound}" >&2
  fi
  return 1
}

# gate NAME LOG: checks NAME's table rows against LOG and sets `fields`
# to their record fragments. Fails if any row fails.
gate() {
  local name="$1" log="$2" row bench key field op bound v rc=0
  fields=""
  for row in "${gates[@]}"; do
    IFS='|' read -r bench key field op bound <<<"${row}"
    [ "${bench}" = "${name}" ] || continue
    v=$(sed -n "s/^${key} //p" "${log}" 2>/dev/null | tail -n 1)
    check "${name}" "${key}" "${v}" "${op}" "${bound}" || rc=1
    if [ "${op}" = text ] && [ -n "${v}" ]; then
      v="\"${v}\""
    elif ! [[ "${v}" =~ ${num_re} ]]; then
      v=null
    fi
    fields+=$(kv "${field}" "${v}")
  done
  return "${rc}"
}

# write_record NAME STATUS HEAD TAIL [NOTE]: BENCH_<NAME>.json holds
# "bench", the HEAD fragments, the keys every record shares (the
# caller's wall_s, STATUS, a timestamp, the caller's log), then the TAIL
# fragments. Prints the ok/FAIL line and counts a failure.
write_record() {
  local name="$1" status="$2" json="BENCH_${1#bench_}.json"
  cat >"${out_dir}/${json}" <<EOF
{
  "bench": "${name}"$3,
  "wall_seconds": ${wall_s},
  "exit_code": ${status},
  "timestamp_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "log": "$(basename "${log}")"$4
}
EOF
  if [ "${status}" -ne 0 ]; then
    echo "FAIL ${name} (exit ${status}, ${wall_s}s) -> ${json}"
    failures=$((failures + 1))
  else
    echo "ok   ${name} (${wall_s}s${5:-}) -> ${json}"
  fi
}

run_smoke=0
run_fleet_shard=0
run_serve=0
if [ "$#" -gt 0 ]; then
  benches=()
  for name in "$@"; do
    case "${name}" in
      campaign_smoke) run_smoke=1 ;;
      fleet_shard) run_fleet_shard=1 ;;
      serve_smoke) run_serve=1 ;;
      *) benches+=("${name}") ;;
    esac
  done
else
  run_smoke=1
  run_fleet_shard=1
  run_serve=1
  benches=()
  for f in "${build_dir}"/bench_*; do
    [ -x "$f" ] && [ ! -d "$f" ] && benches+=("$(basename "$f")")
  done
fi
total=$((${#benches[@]} + run_smoke + run_fleet_shard + run_serve))

if [ "${total}" -eq 0 ]; then
  echo "error: no bench_* binaries in '${build_dir}'" >&2
  exit 2
fi

echo "running ${#benches[@]} benches with VOSIM_PATTERNS=${VOSIM_PATTERNS}"
failures=0
for name in ${benches[@]+"${benches[@]}"}; do
  bin="${build_dir}/${name}"
  if [ ! -x "${bin}" ]; then
    echo "error: missing bench binary '${bin}'" >&2
    failures=$((failures + 1))
    continue
  fi
  log="${out_dir}/${name}.log"
  start_ns=$(date +%s%N)
  (cd "${out_dir}" && "${bin}" >"${log}" 2>&1)
  status=$?
  wall_s=$(secs "${start_ns}" "$(date +%s%N)")
  # A bench that exited nonzero has failed; its readings are not gated.
  fields=""
  [ "${status}" -ne 0 ] || gate "${name}" "${log}" || status=1
  metrics_json=$(sed -n 's/^BENCH_METRICS_JSON //p' "${log}" | tail -n 1)
  [ -z "${metrics_json}" ] || fields+=$(kv metrics "${metrics_json}")
  write_record "${name}" "${status}" \
    "$(kv patterns_per_triad "${VOSIM_PATTERNS}")" "${fields}"
done

# ---- smoke campaign: tiny grid + resume check through vosim_cli ----
if [ "${run_smoke}" -eq 1 ]; then
  smoke_status=0
  store="${out_dir}/campaign_smoke.jsonl"
  log="${out_dir}/campaign_smoke.log"
  smoke_patterns=300
  smoke_args=(campaign --workloads fir,kmeans --circuits rca16
              --backends model --max-triads 4 --patterns "${smoke_patterns}"
              --train-patterns 1000 --store "${store}")
  trace_file="${out_dir}/campaign_smoke_trace.json"
  metrics_file="${out_dir}/campaign_smoke_metrics.json"
  rm -f "${store}" "${trace_file}" "${metrics_file}"
  : >"${log}"
  cells=0
  reused=0
  start_ns=$(date +%s%N)
  if [ -x "${cli}" ]; then
    # Pass 1 computes the 2x1x4 grid; pass 2 must answer every cell
    # from the JSONL store (resume semantics, DESIGN.md §9). The
    # second pass doubles as the telemetry smoke: --trace must produce
    # a Perfetto-loadable trace and --metrics-json a parseable
    # snapshot (DESIGN.md §12).
    (cd "${out_dir}" && "${cli}" "${smoke_args[@]}" >"${log}" 2>&1) || smoke_status=1
    cells=$(sed -n 's/^campaign: \([0-9]*\) cells.*/\1/p' "${log}" | tail -n 1)
    (cd "${out_dir}" && "${cli}" "${smoke_args[@]}" \
       --trace "${trace_file}" --metrics-json "${metrics_file}" \
       >>"${log}" 2>&1) || smoke_status=1
    reused=$(sed -n 's/^campaign: [0-9]* cells (\([0-9]*\) reused.*/\1/p' "${log}" | tail -n 1)
    if [ "${smoke_status}" -eq 0 ] && { [ -z "${cells}" ] || \
         [ "${cells}" -eq 0 ] || [ "${reused:-0}" != "${cells}" ]; }; then
      echo "FAIL campaign_smoke: resume reused ${reused:-?} of ${cells:-?} cells" >&2
      smoke_status=1
    fi
    # Provenance artifact (DESIGN.md §13): a tiny gate-level campaign
    # with ErrorProvenance on. The metrics snapshot must carry the
    # provenance.campaign counters — proof the observers attached and
    # published — and both files ride the CI artifact upload.
    prov_store="${out_dir}/campaign_smoke_prov.jsonl"
    prov_metrics="${out_dir}/campaign_smoke_prov_metrics.json"
    rm -f "${prov_store}" "${prov_metrics}"
    (cd "${out_dir}" && "${cli}" campaign --workloads fir --circuits rca16 \
       --backends sim-levelized --max-triads 3 --patterns 200 \
       --provenance --top-culprits 3 --store "${prov_store}" \
       --metrics-json "${prov_metrics}" >>"${log}" 2>&1) || smoke_status=1
    if ! grep -q '"provenance.campaign' "${prov_metrics}" 2>/dev/null; then
      echo "FAIL campaign_smoke: provenance counters missing from $(basename "${prov_metrics}")" >&2
      smoke_status=1
    fi
    for f in "${trace_file}" "${metrics_file}" "${prov_metrics}"; do
      if [ ! -s "${f}" ]; then
        echo "FAIL campaign_smoke: telemetry file $(basename "${f}") missing or empty" >&2
        smoke_status=1
      elif command -v python3 >/dev/null 2>&1; then
        if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
             "${f}" 2>>"${log}"; then
          echo "FAIL campaign_smoke: $(basename "${f}") is not valid JSON" >&2
          smoke_status=1
        fi
      fi
    done
  else
    echo "FAIL campaign_smoke: missing ${cli}" >&2
    smoke_status=1
  fi
  wall_s=$(secs "${start_ns}" "$(date +%s%N)")
  hit_rate=$(awk -v r="${reused:-0}" -v c="${cells:-0}" \
             'BEGIN{printf "%.3f", (c > 0) ? r / c : 0}')
  echo "CACHE_HIT_RATE ${hit_rate}" | tee -a "${log}"
  gate campaign_smoke "${log}" || smoke_status=1
  # The pass-2 snapshot file is one JSON object per line; embed it so
  # the committed BENCH json carries the campaign's own counters.
  telemetry=""
  [ ! -s "${metrics_file}" ] || telemetry=$(kv telemetry "$(tail -n 1 "${metrics_file}")")
  write_record campaign_smoke "${smoke_status}" \
    "$(kv patterns_per_triad "${smoke_patterns}")" \
    "$(kv grid_cells "${cells:-0}")$(kv resumed_cells "${reused:-0}")${fields}$(
      kv trace '"campaign_smoke_trace.json"')$(kv store '"campaign_smoke.jsonl"')$(
      kv provenance_store '"campaign_smoke_prov.jsonl"')$(
      kv provenance_metrics '"campaign_smoke_prov_metrics.json"')${telemetry}" \
    ", ${reused}/${cells} cells resumed, hit rate ${hit_rate}"
fi

# ---- fleet_shard: sharded fleet campaign, merge bit-identity ----
# A 1000-chip Monte-Carlo grid (fir on rca16, per-chip gate-level
# levelized sim) runs once in a single process and once as 4 shard
# processes. Chip corners and the shard partition are content-hashed
# (DESIGN.md §11), so the merged shard stores must be bit-identical to
# the canonicalized single-process store; elapsed_s is the only
# legitimately differing field and --strip-timing zeroes it.
if [ "${run_fleet_shard}" -eq 1 ]; then
  fs_status=0
  fs_dir="${out_dir}/fleet_shard"
  log="${out_dir}/fleet_shard.log"
  fs_chips=1000
  fs_args=(campaign --workloads fir --circuits rca16
           --backends sim-levelized --max-triads 1
           --chips "${fs_chips}" --patterns 300 --jobs 1)
  rm -rf "${fs_dir}"
  mkdir -p "${fs_dir}"
  : >"${log}"
  cells=0
  single_s=0
  shard_s=0
  start_ns=$(date +%s%N)
  if [ -x "${cli}" ]; then
    t0=$(date +%s%N)
    (cd "${fs_dir}" && "${cli}" "${fs_args[@]}" --store single.jsonl \
       >>"${log}" 2>&1) || fs_status=1
    t1=$(date +%s%N)
    # The shard processes run concurrently: shard wall time vs the
    # single-process time is the parallel-efficiency measurement.
    pids=()
    shard_files=()
    for i in $(seq 0 $((fs_shards - 1))); do
      (cd "${fs_dir}" && "${cli}" "${fs_args[@]}" \
         --shard "${i}/${fs_shards}" --store "shard${i}.jsonl" \
         >>"${log}" 2>&1) &
      pids+=($!)
      shard_files+=("shard${i}.jsonl")
    done
    for pid in "${pids[@]}"; do
      wait "${pid}" || fs_status=1
    done
    t2=$(date +%s%N)
    single_s=$(secs "${t0}" "${t1}")
    shard_s=$(secs "${t1}" "${t2}")
    (cd "${fs_dir}" && "${cli}" merge-store merged.jsonl \
       "${shard_files[@]}" --strip-timing >>"${log}" 2>&1) || fs_status=1
    (cd "${fs_dir}" && "${cli}" merge-store canonical.jsonl single.jsonl \
       --strip-timing >>"${log}" 2>&1) || fs_status=1
    if ! cmp -s "${fs_dir}/merged.jsonl" "${fs_dir}/canonical.jsonl"; then
      echo "FAIL fleet_shard: ${fs_shards}-shard merge differs from the single-process store" >&2
      fs_status=1
    fi
    cells=$(wc -l <"${fs_dir}/canonical.jsonl" 2>/dev/null || echo 0)
    if [ "${cells:-0}" -lt "${fs_chips}" ]; then
      echo "FAIL fleet_shard: ${cells} cells < ${fs_chips} chip instances" >&2
      fs_status=1
    fi
    cp -f "${fs_dir}/merged.jsonl" "${out_dir}/fleet_shard_merged.jsonl"
  else
    echo "FAIL fleet_shard: missing ${cli}" >&2
    fs_status=1
  fi
  wall_s=$(secs "${start_ns}" "$(date +%s%N)")
  eff=$(awk -v s="${single_s}" -v p="${shard_s}" -v n="${fs_shards}" \
        'BEGIN{printf "%.3f", (p > 0) ? s / (n * p) : 0}')
  echo "SHARD_EFFICIENCY ${eff}" >>"${log}"
  gate fleet_shard "${log}" || fs_status=1
  [ "${shard_op}" != record ] || \
    echo "note fleet_shard: efficiency ${eff} reported, gate skipped (${cores} < ${fs_shards} cores)"
  write_record fleet_shard "${fs_status}" \
    "$(kv chips "${fs_chips}")$(kv shards "${fs_shards}")$(
      kv grid_cells "${cells:-0}")$(kv single_process_seconds "${single_s}")$(
      kv sharded_wall_seconds "${shard_s}")${fields}" \
    "$(kv store '"fleet_shard_merged.jsonl"')" \
    ", ${cells} cells, efficiency ${eff}"
fi

# ---- serve_smoke: the daemon answers concurrent requests exactly ----
# Starts vosim_cli serve on a Unix socket, issues two campaign
# requests concurrently, then proves the streamed cells are
# bit-identical to the same grids run offline (after canonicalization;
# elapsed_s is wall clock and gets stripped on both sides).
if [ "${run_serve}" -eq 1 ]; then
  sv_status=0
  sv_dir="${out_dir}/serve_smoke"
  log="${out_dir}/serve_smoke.log"
  rm -rf "${sv_dir}"
  mkdir -p "${sv_dir}"
  : >"${log}"
  sock="${sv_dir}/vosim.sock"
  req1='{"cmd":"campaign","workloads":"fir","circuits":"rca16","backends":"model","max_triads":2,"patterns":300,"train_patterns":800,"chips":3}'
  req2='{"cmd":"campaign","workloads":"dot","circuits":"rca16","backends":"model","max_triads":2,"patterns":300,"train_patterns":800,"chips":3}'
  start_ns=$(date +%s%N)
  if [ -x "${cli}" ]; then
    (cd "${sv_dir}" && "${cli}" serve --socket "${sock}" \
       --store serve_store.jsonl >>"${log}" 2>&1) &
    serve_pid=$!
    for _ in $(seq 1 100); do
      [ -S "${sock}" ] && break
      sleep 0.1
    done
    if [ ! -S "${sock}" ]; then
      echo "FAIL serve_smoke: daemon socket never appeared" >&2
      sv_status=1
      kill "${serve_pid}" 2>/dev/null
    else
      "${cli}" request --socket "${sock}" --json "${req1}" \
        >"${sv_dir}/r1.txt" 2>>"${log}" &
      p1=$!
      "${cli}" request --socket "${sock}" --json "${req2}" \
        >"${sv_dir}/r2.txt" 2>>"${log}" &
      p2=$!
      wait "${p1}" || sv_status=1
      wait "${p2}" || sv_status=1
      if command -v python3 >/dev/null 2>&1; then
        # Requests as Python's json.dumps writes them (spaces after `:`
        # and `,`, non-ASCII as \u escapes, flags as true/false).
        python3 - "${sock}" "${sv_dir}/py_cells.jsonl" >>"${log}" 2>&1 <<'PY' || {
import json, socket, sys

sock_path, cells_path = sys.argv[1], sys.argv[2]

def ask(request):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.sendall((json.dumps(request) + "\n").encode("ascii"))
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    lines = data.decode("utf-8").splitlines()
    return lines, [json.loads(line) for line in lines]

def check(ok, what):
    if not ok:
        sys.exit("python client: " + what)

_, answer = ask({"cmd": "ping"})
check(answer == [{"ok": True, "cmd": "ping"}], "ping answered %r" % answer)
_, answer = ask({"cmd": "p\u00efng"})
check(len(answer) == 1 and answer[0].get("error") == "unknown cmd"
      and answer[0].get("cmd") == "p\u00efng",
      "unknown verb answered %r" % answer)
_, answer = ask({"cmd": "stats"})
check(len(answer) == 1 and answer[0].get("ok") is True
      and "manifest" in answer[0] and "metrics" in answer[0],
      "stats answered %r" % answer)
lines, answer = ask({"cmd": "campaign", "workloads": "fir,dot",
                     "circuits": "rca16", "backends": "model",
                     "max_triads": 2, "patterns": 300,
                     "train_patterns": 800, "chips": 3,
                     "provenance": False})
check(len(answer) > 1 and answer[-1].get("done") is True
      and answer[-1].get("cells") == len(answer) - 1,
      "campaign footer %r" % answer[-1:])
with open(cells_path, "w") as f:
    f.write("\n".join(lines[:-1]) + "\n")
PY
          echo "FAIL serve_smoke: python client" >&2
          sv_status=1
        }
      else
        echo "note serve_smoke: python3 not found, python client skipped"
      fi
      "${cli}" request --socket "${sock}" --json '{"cmd":"shutdown"}' \
        >>"${log}" 2>&1 || sv_status=1
    fi
    wait "${serve_pid}" || sv_status=1
    for r in r1 r2; do
      if ! grep -q '"done":true' "${sv_dir}/${r}.txt" 2>/dev/null; then
        echo "FAIL serve_smoke: request ${r} missing the done footer" >&2
        sv_status=1
      fi
    done
    grep -hv '"done":true' "${sv_dir}/r1.txt" "${sv_dir}/r2.txt" \
      2>/dev/null >"${sv_dir}/served_cells.jsonl"
    (cd "${sv_dir}" && "${cli}" campaign --workloads fir,dot \
       --circuits rca16 --backends model --max-triads 2 --patterns 300 \
       --train-patterns 800 --chips 3 --store offline.jsonl \
       >>"${log}" 2>&1) || sv_status=1
    (cd "${sv_dir}" && "${cli}" merge-store served_canon.jsonl \
       served_cells.jsonl --strip-timing >>"${log}" 2>&1) || sv_status=1
    (cd "${sv_dir}" && "${cli}" merge-store offline_canon.jsonl \
       offline.jsonl --strip-timing >>"${log}" 2>&1) || sv_status=1
    if ! cmp -s "${sv_dir}/served_canon.jsonl" \
         "${sv_dir}/offline_canon.jsonl"; then
      echo "FAIL serve_smoke: served cells differ from the offline campaign" >&2
      sv_status=1
    fi
    if [ -f "${sv_dir}/py_cells.jsonl" ]; then
      (cd "${sv_dir}" && "${cli}" merge-store py_canon.jsonl \
         py_cells.jsonl --strip-timing >>"${log}" 2>&1) || sv_status=1
      if ! cmp -s "${sv_dir}/py_canon.jsonl" \
           "${sv_dir}/offline_canon.jsonl"; then
        echo "FAIL serve_smoke: python client's cells differ from the offline campaign" >&2
        sv_status=1
      fi
    fi
  else
    echo "FAIL serve_smoke: missing ${cli}" >&2
    sv_status=1
  fi
  wall_s=$(secs "${start_ns}" "$(date +%s%N)")
  served=$(wc -l <"${sv_dir}/served_cells.jsonl" 2>/dev/null || echo 0)
  write_record serve_smoke "${sv_status}" "$(kv served_cells "${served:-0}")" "" \
    ", ${served} cells served"
fi

# Track the perf trajectory in-tree: whatever BENCH_*.json this run
# refreshed is copied to the repo root (the canonical committed set).
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
if [ "${out_dir}" != "${repo_root}" ]; then
  cp -f "${out_dir}"/BENCH_*.json "${repo_root}/" 2>/dev/null || true
fi

echo "bench results: $((total - failures))/${total} ok, JSON in ${out_dir}"
[ "${failures}" -eq 0 ]
