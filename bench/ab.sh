#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two source checkouts.
#
#   bench/ab.sh [--rounds N] [--trace 0|1] [--out DIR]
#               PARENT_DIR CHANGE_DIR WORKLOAD...
#
# PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
# example `git worktree add ../parent HEAD~1` next to the working tree).
# Each round runs `python3 perfbench/run.py` once per side and workload,
# each side in its own checkout with its own CARGO_TARGET_DIR under DIR,
# and alternates which side runs first (the parent in even rounds). The
# first round also builds each side's benchmark; the metrics do not include
# the build. Every run uses the benchmark's own seed and run length.
# --rounds defaults to 10; --trace passes through to run.py (--trace 1
# reports the per-layer metrics instead of the end-to-end ones).
#
# For every metric it prints both medians, the parent's interquartile
# range, the median of the per-round change/parent ratios and how many
# rounds the change won (ties count for neither side). Metric names, the
# better direction and the bounds come from CHANGE_DIR/BENCHMARK.json.
# The flag column reads:
#   WORSE       the change median is worse than the parent median by more
#               than the metric's relative bound;
#   unresolved  the parent's interquartile range, relative to its median,
#               is wider than the bound, so the runs cannot show a move of
#               that size (not flagged when every change run beats every
#               parent run).
# Exit status: 1 when a metric is WORSE, a change run reported incorrect
# results, or more change runs than parent runs reported failed
# operations; otherwise 3 when a metric is unresolved; otherwise 0. Every
# run's output stays in DIR (default: a fresh directory under
# ${TMPDIR:-/tmp}).
set -euo pipefail

usage() {
  sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

ROUNDS=10
TRACE=0
OUT=""
while [[ $# -gt 0 && $1 == --* ]]; do
  [[ $# -ge 2 ]] || usage
  case $1 in
  --rounds) ROUNDS=$2 ;;
  --trace) TRACE=$2 ;;
  --out) OUT=$2 ;;
  *) usage ;;
  esac
  shift 2
done
[[ $# -ge 3 && $ROUNDS =~ ^[1-9][0-9]*$ && $TRACE =~ ^[01]$ ]] || usage
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
shift 2
WORKLOADS=("$@")
OUT=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/flexvec-ab.XXXXXX")}
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)

if ! cmp -s "$PARENT/BENCHMARK.json" "$CHANGE/BENCHMARK.json"; then
  echo "ab: warning: the two BENCHMARK.json files differ;" \
    "metrics and bounds come from the change's" >&2
fi

# run_side SIDE DIR WORKLOAD ROUND
run_side() {
  local log="$OUT/$3.$1.$4.log"
  if ! (cd "$2" && CARGO_TARGET_DIR="$OUT/target-$1" \
    python3 perfbench/run.py --workload "$3" --trace "$TRACE" \
    >"$log" 2>&1); then
    echo "ab: $1 run of $3 (round $4) failed; see $log" >&2
    exit 1
  fi
  tail -n 1 "$log" >"$OUT/$3.$1.$4.json"
}

for ((R = 0; R < ROUNDS; ++R)); do
  for W in "${WORKLOADS[@]}"; do
    if ((R % 2 == 0)); then
      run_side parent "$PARENT" "$W" "$R"
      run_side change "$CHANGE" "$W" "$R"
    else
      run_side change "$CHANGE" "$W" "$R"
      run_side parent "$PARENT" "$W" "$R"
    fi
    echo "ab: round $((R + 1))/$ROUNDS $W done" >&2
  done
done

python3 - "$OUT" "$CHANGE/BENCHMARK.json" "$ROUNDS" "$TRACE" \
  "${WORKLOADS[@]}" <<'EOF'
import json
import statistics
import sys

out, spec_path, rounds, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
workloads = sys.argv[5:]
spec = json.load(open(spec_path))
metrics = spec["per_layer"] if trace == "1" else spec["end_to_end"]


def load(workload, side, r):
    with open(f"{out}/{workload}.{side}.{r}.json") as f:
        return json.load(f)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


flagged = []
unresolved = []
print(f"{rounds} interleaved rounds; ratio = change / parent; "
      "won = rounds where the change was better")
print("| workload | metric | parent median | parent IQR | change median "
      "| ratio | pair ratio | won | flag |")
print("|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    runs = [(load(w, "parent", r), load(w, "change", r)) for r in range(rounds)]
    incorrect = [sum(1 for run in runs if not run[i]["correct"]) for i in (0, 1)]
    failing = [sum(1 for run in runs if run[i]["failed"]) for i in (0, 1)]
    for side, i in (("parent", 0), ("change", 1)):
        if incorrect[i] or failing[i]:
            print(f"ab: {w}: {side}: of {rounds} runs, {incorrect[i]} "
                  f"reported incorrect results and {failing[i]} had failed "
                  "operations", file=sys.stderr)
    if incorrect[1] or failing[1] > failing[0]:
        flagged.append(f"{w} ({incorrect[1]} change runs incorrect; "
                       f"runs with failed operations: {failing[1]} change, "
                       f"{failing[0]} parent)")
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in runs
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        par = [p for p, _ in pairs]
        chg = [c for _, c in pairs]
        pm, cm = statistics.median(par), statistics.median(chg)
        q1, q3 = quartiles(par)
        lower = m["better"] == "lower"
        won = sum(1 for p, c in pairs if (c < p if lower else c > p))
        ratios = [c / p for p, c in pairs if p]
        pair_ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        ratio = f"{cm / pm:.3f}" if pm else "-"
        flag = ""
        bound = m.get("bound")
        if bound is not None:
            limit = pm * (1 + bound) if lower else pm * (1 - bound)
            separated = max(chg) < min(par) if lower else min(chg) > max(par)
            if (cm > limit) if lower else (cm < limit):
                flag = f"WORSE than bound {bound:g}"
                flagged.append(f"{w} {name}")
            elif pm and (q3 - q1) / abs(pm) > bound and not separated:
                flag = f"unresolved: IQR/median {(q3 - q1) / abs(pm):.2f} > {bound:g}"
                unresolved.append(f"{w} {name}")
        print(f"| {w} | `{name}` | {pm:.4g} {m['unit']} | {q3 - q1:.2g} "
              f"| {cm:.4g} {m['unit']} | {ratio} | {pair_ratio} "
              f"| {won}/{len(pairs)} | {flag} |")
print(f"raw runs: {out}")
if flagged:
    print("ab: worse than the parent: " + "; ".join(flagged), file=sys.stderr)
    sys.exit(1)
if unresolved:
    print("ab: parent spread wider than the bound, unresolved: "
          + ", ".join(unresolved), file=sys.stderr)
    sys.exit(3)
EOF
