#!/usr/bin/env bash
# Checks that a change leaves the deterministic Figure 8 payloads
# byte-identical: renders each payload with both builds' flexvec-bench and
# compares them with cmp.
#
#   usage: bench/payload_cmp.sh PARENT_BUILD CHANGE_BUILD
#
# PARENT_BUILD and CHANGE_BUILD are CMake build directories (of the parent
# commit and of the change) with the flexvec-bench target built. The
# payloads are the four every performance change must keep:
#
#   full       --deterministic                        (full scale)
#   vl256      --deterministic --vl=256 --scale=0.1
#   vl2048     --deterministic --vl=2048 --scale=0.1  (the widest width)
#   faultseed  --deterministic --fault-seed=20260808 --scale=0.5
#
# Exit status: 0 when all four are identical; 1 at the first payload that
# differs (named on stderr, both files kept); 2 on a usage error, a missing
# flexvec-bench, or a run that fails. The payloads are written under a
# fresh directory in ${TMPDIR:-/tmp}, printed at the end.
set -euo pipefail

if [ $# -ne 2 ]; then
  sed -n '6p' "$0" | sed 's/^#[[:space:]]*//' >&2
  exit 2
fi

BENCHES=()
for Dir in "$1" "$2"; do
  Bench="$Dir/tools/flexvec-bench"
  if [ ! -x "$Bench" ]; then
    echo "payload_cmp: $Bench not found; build the 'flexvec-bench'" \
      "target first" >&2
    exit 2
  fi
  BENCHES+=("$Bench")
done

OUT=$(mktemp -d "${TMPDIR:-/tmp}/flexvec-payload.XXXXXX")
NAMES=(full vl256 vl2048 faultseed)
ARGS=("" "--vl=256 --scale=0.1" "--vl=2048 --scale=0.1"
  "--fault-seed=20260808 --scale=0.5")

for I in "${!NAMES[@]}"; do
  Name=${NAMES[$I]}
  for Side in 0 1; do
    Label=$([ "$Side" = 0 ] && echo parent || echo change)
    # shellcheck disable=SC2086 # ARGS entries are deliberately word-split.
    if ! "${BENCHES[$Side]}" --deterministic --jobs=2 --quiet ${ARGS[$I]} \
      --out="$OUT/$Name.$Label.json" >/dev/null; then
      echo "payload_cmp: the $Label run of the $Name payload failed" >&2
      exit 2
    fi
  done
  if ! cmp -s "$OUT/$Name.parent.json" "$OUT/$Name.change.json"; then
    echo "payload_cmp: the $Name payload differs:" \
      "$OUT/$Name.parent.json vs $OUT/$Name.change.json" >&2
    exit 1
  fi
  echo "payload_cmp: $Name identical"
done
echo "payload_cmp: all payloads identical ($OUT)"
