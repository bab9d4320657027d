#!/bin/sh
# CLI-error smoke: no input reaches an internal error.  A bad option
# value is a usage error (exit 124) naming the option.  A path the run
# cannot use fails the run before any search with exit 2 and the
# option's name (--checkpoint, --trace, --search-log), except
# --cache-dir, which warns once and answers from memory: exit 0 and a
# plain run's checksum.  The unusable paths lie under a missing
# directory, or under a regular file (a parent that exists but takes
# no child).
set -eu

BIN=${BIN:-_build/default/bin/sram_opt.exe}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/cli_errors_smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT INT TERM

fail() { echo "FAIL: $*"; cat "$DIR/err"; exit 1; }

# `optimize ARGS`: its exit status in $status, stdout and stderr in
# $DIR/out and $DIR/err.
run() {
    status=0
    "$BIN" optimize "$@" >"$DIR/out" 2>"$DIR/err" || status=$?
    if grep -q "internal error" "$DIR/err"; then
        fail "optimize $* reached an internal error"
    fi
}
checksum() { sed -n 's/^  "checksum": "\([0-9a-f]*\)".*/\1/p' "$DIR/out"; }

for args in "-c 1000" "-c 512KB" "-m nsga2 --budget 0" "--jobs 0" "--jobs 65" \
    "--log-level bogus"; do
    flag=$(echo "$args" | awk '{ print $(NF - 1) }')
    run $args
    { [ "$status" -eq 124 ] && grep -q -- "option '$flag'" "$DIR/err"; } ||
        fail "optimize $args exited $status, expected a usage error (124) naming $flag"
done

run -c 1KB --json
sum=$(checksum)
[ -n "$sum" ] || fail "a plain 1KB run printed no checksum"
run -c 1KB --json --cache-dir "$DIR/missing/a/b"
[ "$status" -eq 0 ] || fail "--cache-dir under a missing directory exited $status, expected 0"
[ "$(checksum)" = "$sum" ] || fail "--cache-dir under a missing directory printed checksum '$(checksum)', expected $sum"
[ "$(grep -c "warn" "$DIR/err")" -eq 1 ] || fail "--cache-dir under a missing directory: expected one warning"

: >"$DIR/file"
for args in "--checkpoint $DIR/missing/a/j.rlog" \
    "--checkpoint $DIR/missing/a/j.rlog --resume" "--checkpoint $DIR/file/j.rlog" \
    "--trace $DIR/missing/t.json" "--search-log $DIR/missing/s.json"; do
    flag=${args%% *}
    run -c 1KB --json $args
    { [ "$status" -eq 2 ] && grep -q -- "$flag" "$DIR/err"; } ||
        fail "optimize $args exited $status, expected 2 naming $flag"
    [ ! -s "$DIR/out" ] || fail "optimize $args printed an answer before failing"
done

echo "cli-errors smoke: 6 usage errors named their options; 5 unusable paths failed cleanly; --cache-dir fell back to memory with checksum $sum"
