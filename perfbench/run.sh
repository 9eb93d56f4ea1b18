#!/bin/sh
# Builds the benchmark from source, then runs it with the given arguments:
#   sh perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Run it from the root of the repository.  The build has a directory of its
# own and skips dune's shared cache, so it writes only inside the tree and
# never disturbs the development build under _build.
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . --build-dir _build_perfbench \
  --profile release ./perfbench/perfbench.exe >&2
exec ./_build_perfbench/default/perfbench/perfbench.exe "$@"
