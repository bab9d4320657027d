#!/bin/sh
# CLI-error smoke: no input reaches an internal error.  A bad option
# value is a usage error (exit 124) naming the option, in every
# subcommand that takes it.  A path the run cannot use fails the run
# before any search with exit 2 and the option's name (--checkpoint,
# --trace, --search-log), except --cache-dir, which warns once and
# answers from memory: exit 0 and a plain run's checksum.  The unusable
# paths lie under a missing directory, or under a regular file (a
# parent that exists but takes no child).
set -eu

BIN=${BIN:-_build/default/bin/sram_opt.exe}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/cli_errors_smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT INT TERM

fail() { echo "FAIL: $*"; cat "$DIR/err"; exit 1; }

# `sram_opt ARGS`: its exit status in $status, stdout and stderr in
# $DIR/out and $DIR/err.  A binary that accepts a bad value may start a
# search or a daemon instead, so every run is bounded; the bound keeps
# the command's own status (a daemon stopped by it drains and exits 0).
run() {
    status=0
    timeout --preserve-status 60 "$BIN" "$@" >"$DIR/out" 2>"$DIR/err" || status=$?
    if grep -q "internal error" "$DIR/err"; then
        fail "sram_opt $* reached an internal error"
    fi
}
checksum() { sed -n 's/^  "checksum": "\([0-9a-f]*\)".*/\1/p' "$DIR/out"; }

# `usage_error FLAG ARGS`: `sram_opt ARGS` must exit 124 naming FLAG.
usage_errors=0
usage_error() {
    flag=$1
    shift
    run "$@"
    { [ "$status" -eq 124 ] && grep -q -- "option '$flag'" "$DIR/err"; } ||
        fail "sram_opt $* exited $status, expected a usage error (124) naming $flag"
    usage_errors=$((usage_errors + 1))
}

usage_error -c optimize -c 1000
usage_error -c optimize -c 512KB
usage_error --budget optimize -m nsga2 --budget 0

# The run options every searching subcommand shares; serve gets its
# own socket so an accepting binary cannot litter the work tree.
for cmd in optimize explain sweep experiments anneal bank \
    "serve --socket $DIR/serve.sock"; do
    usage_error --jobs $cmd --jobs 0
    usage_error --jobs $cmd --jobs 65
    usage_error --log-level $cmd --log-level bogus
    usage_error --checkpoint-every $cmd --checkpoint-every=-5
done

usage_error --max-banks bank -c 1KB --max-banks 0
usage_error --max-banks bank -c 1KB --max-banks=-3
usage_error -c bank -c 32B
usage_error --rows validate --rows 0
usage_error --rows stat --rows 0
usage_error --length workload -c 1KB --length 0
usage_error --max-queue serve --socket "$DIR/serve.sock" --max-queue 0

run optimize -c 1KB --json
sum=$(checksum)
[ -n "$sum" ] || fail "a plain 1KB run printed no checksum"
run optimize -c 1KB --json --cache-dir "$DIR/missing/a/b"
[ "$status" -eq 0 ] || fail "--cache-dir under a missing directory exited $status, expected 0"
[ "$(checksum)" = "$sum" ] || fail "--cache-dir under a missing directory printed checksum '$(checksum)', expected $sum"
[ "$(grep -c "warn" "$DIR/err")" -eq 1 ] || fail "--cache-dir under a missing directory: expected one warning"

: >"$DIR/file"
for args in "--checkpoint $DIR/missing/a/j.rlog" \
    "--checkpoint $DIR/missing/a/j.rlog --resume" "--checkpoint $DIR/file/j.rlog" \
    "--trace $DIR/missing/t.json" "--search-log $DIR/missing/s.json"; do
    flag=${args%% *}
    run optimize -c 1KB --json $args
    { [ "$status" -eq 2 ] && grep -q -- "$flag" "$DIR/err"; } ||
        fail "optimize $args exited $status, expected 2 naming $flag"
    [ ! -s "$DIR/out" ] || fail "optimize $args printed an answer before failing"
done

echo "cli-errors smoke: $usage_errors usage errors named their options; 5 unusable paths failed cleanly; --cache-dir fell back to memory with checksum $sum"
