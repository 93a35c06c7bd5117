#!/usr/bin/env bash
# A/B comparison of the protocol benchmark: a base revision against the
# current checkout.
#
#   scripts/ab.sh <base-rev> [--workload W] [--pairs N] [--seed S]
#                 [--claim METRIC | --smoke]
#
# Exports <base-rev> with `git archive` into a temporary directory (no
# worktree entry is left in .git if the run is cut short), builds both
# benchmark binaries offline, then runs N pairs (default 5) of
# `benchmark/run.sh --workload W --seed S --trace 0` per workload (default:
# all four of BENCHMARK.json, seed 11), alternating which side runs first.
# `--smoke` passes `--smoke` on (tiny worlds, seconds per run) and checks
# only the exact metrics and the failed share: with base HEAD it shows that
# two separate builds agree exactly and that the script works end to end.
#
# For every end-to-end metric of BENCHMARK.json it prints both medians, the
# base's interquartile range (Python's `statistics.quantiles` exclusive
# method), the change's win count (ties count for neither side) and a
# verdict:
#   - `sim_latency_iqm_s`, `recall`, `overhead_mb`, `finished_share` are
#     exact: any difference in any pair fails;
#   - so is the `fingerprint` row, the replay fingerprint each run prints
#     on its `# sessions … fingerprint` line: two builds that simulate the
#     same events print the same one;
#   - the others fail when the change's median is worse than the base's by
#     more than the metric's `bound`, and read `unresolved` when the base's
#     own IQR is wider than that bound;
#   - the share of failed operations fails if it grows.
# `--claim METRIC` adds one line per workload: the claimed gain in that
# end-to-end metric is met when the change wins at least nine in ten pairs
# (ties count for neither side) and the medians differ, in the change's
# favour, by more than the base's IQR.
#
# Whether the host was busy: each run's wall time and CPU time (user + sys
# of `benchmark/run.sh` and its children, from bash's `time`) are recorded
# and printed per pair, with /proc/loadavg at each workload's start and
# end. A run is single-threaded, so on an idle host its wall time is its
# CPU time; a pair is *contended* when either run's wall time exceeds its
# CPU time by more than CONTENDED_MARGIN (10 %), i.e. it waited for a
# core. The verdict table (and claim line) is printed for all pairs, then
# again without the contended ones; only the all-pairs verdicts set the
# exit status.
# Exits 1 if any verdict fails or a claim is not met. Needs git, cargo, jq,
# awk.
set -euo pipefail

# Wall time above CPU time, as a share of CPU time, past which a run
# counts as contended.
CONTENDED_MARGIN=0.10

usage() {
  echo "usage: $0 <base-rev> [--workload W] [--pairs N] [--seed S] [--claim METRIC | --smoke]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
workloads=""
pairs=5
seed=11
claim=""
smoke=false
while [ $# -gt 0 ]; do
  case $1 in
    --workload) workloads=${2:?}; shift 2 ;;
    --pairs) pairs=${2:?}; shift 2 ;;
    --seed) seed=${2:?}; shift 2 ;;
    --claim) claim=${2:?}; shift 2 ;;
    --smoke) smoke=true; shift ;;
    *) usage ;;
  esac
done
# A claim is about host cost, which smoke-sized runs do not measure.
[ -n "$claim" ] && $smoke && usage

root=$(git rev-parse --show-toplevel)
cd "$root"
[ -n "$workloads" ] || workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
if [ -n "$claim" ] && ! jq -e --arg m "$claim" 'any(.end_to_end[]; .name == $m)' BENCHMARK.json > /dev/null; then
  echo "--claim $claim: not an end-to-end metric of BENCHMARK.json" >&2
  exit 2
fi
size=()
$smoke && size=(--smoke)
base_sha=$(git rev-parse --short "$base_rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/runs"
git archive "$base_sha" | tar -x -C "$tmp/base"

echo "building base $base_sha and the checkout (offline)" >&2
for dir in "$tmp/base" "$root"; do
  cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

# run <side> <dir> <workload> <pair>: one end-to-end run; keeps its result
# object (the last line of output) with the run's fingerprint and its host
# wall and CPU seconds added.
run() {
  local out="$tmp/runs/$3.$1.$4.json" log="$tmp/runs/$3.$1.$4.log" fp wall user sys
  local TIMEFORMAT='%R %U %S'
  { time (cd "$2" && benchmark/run.sh --workload "$3" --seed "$seed" --trace 0 "${size[@]}" \
      > "$log" 2>&4); } 4>&2 2> "$log.time" \
    || echo "# $1 run $4 of $3 exited non-zero" >&2
  read -r wall user sys < "$log.time"
  fp=$(sed -n 's/^# sessions .*, fingerprint \([0-9a-f]*\)$/\1/p' "$log")
  tail -n 1 "$log" \
    | jq -c --arg fp "$fp" --argjson wall "$wall" --argjson user "$user" --argjson sys "$sys" \
      '. + {fingerprint: $fp, host: {wall_s: $wall, cpu_s: ($user + $sys)}}' > "$out" \
    && jq -e .metrics "$out" > /dev/null || { echo "no result object in $log" >&2; exit 1; }
}

loadavg() { cut -d ' ' -f 1-3 /proc/loadavg; }

for w in $workloads; do
  loadavg > "$tmp/runs/$w.load"
  for ((i = 1; i <= pairs; i++)); do
    echo "$w: pair $i/$pairs" >&2
    if ((i % 2)); then
      run base "$tmp/base" "$w" "$i"
      run change "$root" "$w" "$i"
    else
      run change "$root" "$w" "$i"
      run base "$tmp/base" "$w" "$i"
    fi
  done
  loadavg >> "$tmp/runs/$w.load"
done

# shellcheck disable=SC2016 # jq programs, not shell expansion
defs='
def q($k): sort as $d | ($d | length) as $n | ($n + 1) as $m
  | (($k * $m / 4) | floor | if . < 1 then 1 elif . > $n - 1 then $n - 1 else . end) as $j
  | ($k * $m - $j * 4) as $delta
  | if $n == 1 then $d[0] else ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4 end;
def exact: IN("sim_latency_iqm_s", "recall", "overhead_mb", "finished_share");
def fmt: if . == null then "-" else (. * 10000 | round / 10000 | tostring) end;
# One end-to-end metric $m over the paired runs: both medians, the base IQR
# and how many pairs the change won.
def paired($m):
  [$base[] | .metrics[$m.name].value] as $b
  | [$change[] | .metrics[$m.name].value] as $c
  | {b: $b, c: $c, bm: ($b | q(2)), cm: ($c | q(2)), iqr: (($b | q(3)) - ($b | q(1))),
     wins: ([range($b | length)] | map(select(
        if $m.better == "lower" then $c[.] < $b[.] else $c[.] > $b[.] end)) | length)};
'
# shellcheck disable=SC2016
report=$defs'
($bench[0].end_to_end) as $metrics
| [$metrics[] | . as $m
  | paired($m) as {b: $b, c: $c, bm: $bm, cm: $cm, iqr: $iqr, wins: $wins}
  | (if $bm == 0 then 0 else ($cm - $bm) / $bm end) as $rel
  | (if $m.better == "lower" then $rel else -$rel end) as $worse
  | (if ($m.name | exact) then
       (if $b == $c and ($b | unique | length) == 1 then "ok (identical)" else "FAIL (differs)" end)
     elif $smoke then "not checked (smoke)"
     elif $worse > $m.bound then "FAIL (worse by \($worse * 1000 | round / 10)% > \($m.bound * 100)%)"
     elif $bm != 0 and $iqr / $bm > $m.bound then "unresolved (base IQR \($iqr / $bm * 1000 | round / 10)%)"
     else "ok (\($rel * 1000 | round / 10)%)" end) as $verdict
  | [$m.name, ($bm | fmt), ($cm | fmt), ($iqr | fmt), "\($wins)/\($b | length)", $verdict]]
| ([$base[] | .failed] | add) as $bf | ([$base[] | .attempted] | add) as $ba
| ([$change[] | .failed] | add) as $cf | ([$change[] | .attempted] | add) as $ca
| [$base[] | .fingerprint] as $bp | [$change[] | .fingerprint] as $cp
| . + [["fingerprint", $bp[0], $cp[0], "-", "-",
        (if any($bp[], $cp[]; . == "") then "FAIL (missing)"
         elif $bp == $cp and ($bp | unique | length) == 1 then "ok (identical)"
         else "FAIL (differs)" end)]]
| . + [["failed ops", "\($bf)/\($ba)", "\($cf)/\($ca)", "-", "-",
        (if $cf * $ba > $bf * $ca then "FAIL (grows)" else "ok" end)]]
| (["metric", "base_median", "change_median", "base_iqr", "wins", "verdict"], .[])
| @tsv'
# The claim rule: at least nine in ten pairs won, and a median gap in the
# change's favour wider than the base's IQR.
# shellcheck disable=SC2016
verdict=$defs'
($bench[0].end_to_end[] | select(.name == $claim)) as $m
| paired($m) as {b: $b, bm: $bm, cm: $cm, iqr: $iqr, wins: $wins}
| (if $m.better == "lower" then $bm - $cm else $cm - $bm end) as $gap
| (if $wins * 10 >= ($b | length) * 9 and $gap > $iqr then "met" else "not met" end) as $met
| "claim \($claim): \($met) (\($wins)/\($b | length) pairs won; median \($bm | fmt) -> \($cm | fmt), gap \($gap | fmt) vs base IQR \($iqr | fmt))"'

# runs_jq <workload> <pairs> <jq args...>: a jq program over BENCHMARK.json
# and the workload's base and change result objects of the listed pairs.
runs_jq() {
  local w=$1 keep=$2 i
  jq -rn --slurpfile bench BENCHMARK.json \
    --slurpfile base <(for i in $keep; do cat "$tmp/runs/$w.base.$i.json"; done) \
    --slurpfile change <(for i in $keep; do cat "$tmp/runs/$w.change.$i.json"; done) "${@:3}"
}

# tables <workload> <pairs>: the verdict table and claim line over the
# listed pairs; prints FAIL or "not met" where they fail.
tables() {
  awk -F '\t' '{ printf "%-18s %-17s %-17s %-10s %-6s %s\n", $1, $2, $3, $4, $5, $6 }' \
    <<< "$(runs_jq "$1" "$2" --argjson smoke "$smoke" "$report")"
  [ -z "$claim" ] || runs_jq "$1" "$2" --arg claim "$claim" "$verdict"
}

status=0
for w in $workloads; do
  echo
  echo "== $w: $pairs pairs, seed $seed, base $base_sha vs checkout"
  { read -r start; read -r end; } < "$tmp/runs/$w.load"
  echo "host: load average $start at start, $end at end"
  printf '%-6s %-10s %-10s %-12s %-12s %s\n' pair base_wall base_cpu change_wall change_cpu contended
  kept="" contended=""
  for ((i = 1; i <= pairs; i++)); do
    row=$(jq -rs --argjson m "$CONTENDED_MARGIN" \
      '[.[].host | .wall_s, .cpu_s | . * 100 | round / 100] + [any(.[].host; .wall_s > .cpu_s * (1 + $m))] | @tsv' \
      "$tmp/runs/$w.base.$i.json" "$tmp/runs/$w.change.$i.json")
    awk -F '\t' -v i="$i" '{ printf "%-6s %-10s %-10s %-12s %-12s %s\n", i, $1, $2, $3, $4, ($5 == "true" ? "yes" : "no") }' <<< "$row"
    if [[ $row == *true ]]; then contended+=" $i"; else kept+=" $i"; fi
  done
  all=$(tables "$w" "$(seq 1 "$pairs")")
  echo "$all"
  grep -q 'FAIL\|: not met ' <<< "$all" && status=1
  if [ -z "$contended" ]; then
    echo "-- no contended pairs"
  elif [ -z "$kept" ]; then
    echo "-- every pair contended (wall > CPU by more than ${CONTENDED_MARGIN}): none left to compare"
  else
    echo "-- without contended pairs$contended (wall > CPU by more than ${CONTENDED_MARGIN}):"
    tables "$w" "$kept"
  fi
done
echo
if ((status)); then echo "ab: regression found or claim not met"; else echo "ab: no regression"; fi
exit $status
