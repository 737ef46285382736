#!/bin/sh
# Build the benchmark from this checkout's sources, then run it:
#   sh perfbench/run.sh --workload deep|serve --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  Build output goes to stderr, so the
# benchmark's JSON result stays the last line of stdout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a wasai checkout (dune-project and lib/ missing)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/wasai.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
