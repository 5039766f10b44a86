#!/bin/sh
# Build the server and the benchmark from source, then run the benchmark
# with the given arguments.  Run from the repository root:
#
#   sh wirebench/run.sh --workload nested-cold --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr, so the result line stays the last line of
# standard output.  The shared dune cache is off, so the build writes only
# under _build.
set -e
if [ ! -f dune-project ] || [ ! -f bin/whynot_server.ml ] || [ ! -d lib ]; then
  echo "wirebench: run from the repository root (no server sources here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bin/whynot_server.exe ./wirebench/main.exe 1>&2
exec ./_build/default/wirebench/main.exe "$@"
