#!/bin/sh
# Disk-tier smoke: three `optimize -c 1KB --json --stats` runs share one
# --cache-dir.  The second must answer from disk (the first run's
# checksum, persist.cache.hit 1, dc.solves 0).  Before the third, the
# framework.optimize log loses its last 5 bytes, a torn tail: the third
# run must discard them (persist.bytes.discarded > 0) and still print
# the same checksum.  A fourth run, from a directory outside the work
# tree, must stamp its fresh log's header with the commit the binary
# was built from: the checkout's `git rev-parse --short HEAD`.
set -eu

BIN=${BIN:-_build/default/bin/sram_opt.exe}
BIN=$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")
DIR=$(mktemp -d "${TMPDIR:-/tmp}/cache_dir_smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT INT TERM

run() {
    "$BIN" optimize -c 1KB --json --stats --cache-dir "$DIR/cache" >"$DIR/$1.out" ||
        { echo "FAIL: $1 run exited $?"; exit 1; }
}
checksum() { sed -n 's/^  "checksum": "\([0-9a-f]*\)".*/\1/p' "$DIR/$1.out"; }
counter() { awk -v name="$2" '$1 == name { print $2; exit }' "$DIR/$1.out"; }
fail() { echo "FAIL: $*"; exit 1; }

run first
sum=$(checksum first)
[ -n "$sum" ] || fail "first run printed no checksum"

run second
[ "$(checksum second)" = "$sum" ] || fail "second run's checksum $(checksum second) is not $sum"
[ "$(counter second persist.cache.hit)" = 1 ] ||
    fail "second run: persist.cache.hit $(counter second persist.cache.hit), expected 1"
[ "$(counter second dc.solves)" = 0 ] ||
    fail "second run: dc.solves $(counter second dc.solves), expected 0"

truncate -s -5 "$DIR/cache/framework.optimize.rlog"
run third
[ "$(checksum third)" = "$sum" ] || fail "third run's checksum $(checksum third) is not $sum"
discarded=$(counter third persist.bytes.discarded)
[ "${discarded:-0}" -gt 0 ] || fail "third run discarded no torn bytes"

expected=$(git rev-parse --short HEAD 2>/dev/null) || expected=unknown
mkdir "$DIR/outside"
(cd "$DIR/outside" && "$BIN" optimize -c 1KB --json --cache-dir "$DIR/outside/cache" >/dev/null) ||
    fail "run from outside the work tree exited $?"
stamped=$(grep -ao '"git_commit":"[^"]*"' "$DIR/outside/cache/framework.optimize.rlog" |
    head -n 1 | sed 's/.*:"\(.*\)"/\1/')
[ "$stamped" = "$expected" ] ||
    fail "log header written outside the work tree records commit '$stamped', expected '$expected'"

echo "cache-dir smoke: checksum $sum from disk; torn tail of $discarded bytes discarded; header commit $stamped"
