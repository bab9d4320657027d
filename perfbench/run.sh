#!/usr/bin/env bash
# Builds sram_opt and the benchmark program from this checkout's sources
# (default dev profile) and runs one benchmark workload:
#
#   bash perfbench/run.sh --workload served-novel --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON
# result.  See perfbench/NOTES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/sram_opt.ml ]; then
  echo "perfbench: run from a checkout of the repository (no sources here)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# No shared dune cache: the build reads and writes only this checkout.
dune build --root . --profile dev --cache=disabled ./bin/sram_opt.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --bin _build/default/bin/sram_opt.exe "$@"
