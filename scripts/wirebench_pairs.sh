#!/bin/sh
# Interleaved parent/change pairs of the wire-level benchmark, then the
# comparison of the two sides.  Run from the repository root:
#
#   sh scripts/wirebench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [CLAIM]
#
# PARENT_DIR and CHANGE_DIR are checkouts of the two commits (for example
# made with `git archive`).  Pair i runs both sides with seed i, for the
# window length BENCHMARK.json gives; odd pairs run the parent first,
# even pairs the change, so a drift of the machine's speed does not
# always favour one side.  Each side builds and runs from its own
# directory with `sh wirebench/run.sh`.  Results go to
# .wirebench/pairs/WORKLOAD/{parent,change}-i.json here, and the last
# step is the change's `wirebench/main.exe compare` over them, with
# `--claim CLAIM` (WORKLOAD:METRIC) when one is given.
set -e
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: sh scripts/wirebench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [CLAIM]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
n=$4
claim=$5
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
out="$(pwd)/.wirebench/pairs/$workload"
mkdir -p "$out"

run_side() { # side dir seed
  echo "wirebench-pairs: $workload seed $3: $1" >&2
  (cd "$2" && sh wirebench/run.sh --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 0 --out "$out/$1-$3.json" > /dev/null)
}

i=1
while [ "$i" -le "$n" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run_side parent "$parent" "$i"
    run_side change "$change" "$i"
  else
    run_side change "$change" "$i"
    run_side parent "$parent" "$i"
  fi
  i=$((i + 1))
done

parents=""
changes=""
i=1
while [ "$i" -le "$n" ]; do
  parents="$parents $out/parent-$i.json"
  changes="$changes $out/change-$i.json"
  i=$((i + 1))
done
if [ -n "$claim" ]; then
  set -- --claim "$claim"
else
  set --
fi
# shellcheck disable=SC2086
exec "$change/_build/default/wirebench/main.exe" compare "$@" $parents -- $changes
