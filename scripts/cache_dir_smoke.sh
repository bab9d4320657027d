#!/bin/sh
# Disk-tier smoke: three `optimize -c 1KB --json --stats` runs share one
# --cache-dir.  The second must answer from disk (the first run's
# checksum, persist.cache.hit 1, dc.solves 0).  Before the third, the
# framework.optimize log loses its last 5 bytes, a torn tail: the third
# run must discard them (persist.bytes.discarded > 0) and still print
# the same checksum.  Then a `-c 4KB` run on the warm directory must
# miss framework.optimize (persist.cache.miss 1: the yield pins and the
# two write-delay levels it reads are on disk), solve only the leakage
# operating point (dc.solves 1, not the write transients' 114) and print
# the checksum a `-c 4KB` run without the cache prints.  A run from a
# directory outside the work tree must stamp its fresh log's header
# with the commit the binary was built from: the checkout's
# `git rev-parse --short HEAD`.  Two
# journaled runs without the cache drive the exhaustive sweep's chunks:
# `--checkpoint F` must print the first run's checksum and record all
# 157 chunks of the 1KB grid (64 geometries each), and the same command
# with `--resume` must print it again with all 157 replayed and no
# point scanned (exhaustive.search 0).
set -eu

BIN=${BIN:-_build/default/bin/sram_opt.exe}
BIN=$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")
DIR=$(mktemp -d "${TMPDIR:-/tmp}/cache_dir_smoke.XXXXXX")
trap 'rm -rf "$DIR"' EXIT INT TERM

run_at() {
    capacity=$1
    name=$2
    shift 2
    "$BIN" optimize -c "$capacity" --json --stats "$@" >"$DIR/$name.out" ||
        { echo "FAIL: $name run exited $?"; exit 1; }
}
run() { run_at 1KB "$@"; }
checksum() { sed -n 's/^  "checksum": "\([0-9a-f]*\)".*/\1/p' "$DIR/$1.out"; }
counter() { awk -v name="$2" '$1 == name { print $2; exit }' "$DIR/$1.out"; }
fail() { echo "FAIL: $*"; exit 1; }

run first --cache-dir "$DIR/cache"
sum=$(checksum first)
[ -n "$sum" ] || fail "first run printed no checksum"

run second --cache-dir "$DIR/cache"
[ "$(checksum second)" = "$sum" ] || fail "second run's checksum $(checksum second) is not $sum"
[ "$(counter second persist.cache.hit)" = 1 ] ||
    fail "second run: persist.cache.hit $(counter second persist.cache.hit), expected 1"
[ "$(counter second dc.solves)" = 0 ] ||
    fail "second run: dc.solves $(counter second dc.solves), expected 0"

truncate -s -5 "$DIR/cache/framework.optimize.rlog"
run third --cache-dir "$DIR/cache"
[ "$(checksum third)" = "$sum" ] || fail "third run's checksum $(checksum third) is not $sum"
discarded=$(counter third persist.bytes.discarded)
[ "${discarded:-0}" -gt 0 ] || fail "third run discarded no torn bytes"

run_at 4KB cold4k
sum4k=$(checksum cold4k)
[ -n "$sum4k" ] || fail "cold 4KB run printed no checksum"
run_at 4KB warm4k --cache-dir "$DIR/cache"
[ "$(checksum warm4k)" = "$sum4k" ] || fail "warm 4KB run's checksum $(checksum warm4k) is not $sum4k"
[ "$(counter warm4k persist.cache.miss)" = 1 ] ||
    fail "warm 4KB run: persist.cache.miss $(counter warm4k persist.cache.miss), expected 1 (framework.optimize)"
[ "$(counter warm4k dc.solves)" = 1 ] ||
    fail "warm 4KB run: dc.solves $(counter warm4k dc.solves), expected 1 (the leakage operating point)"

run journaled --checkpoint "$DIR/journal.rlog"
[ "$(checksum journaled)" = "$sum" ] || fail "journaled run's checksum $(checksum journaled) is not $sum"
[ "$(counter journaled persist.checkpoint.chunks)" = 157 ] ||
    fail "journaled run: persist.checkpoint.chunks $(counter journaled persist.checkpoint.chunks), expected 157"

run resumed --checkpoint "$DIR/journal.rlog" --resume
[ "$(checksum resumed)" = "$sum" ] || fail "resumed run's checksum $(checksum resumed) is not $sum"
[ "$(counter resumed persist.checkpoint.replayed)" = 157 ] ||
    fail "resumed run: persist.checkpoint.replayed $(counter resumed persist.checkpoint.replayed), expected 157"
[ "$(counter resumed exhaustive.search)" = 0 ] ||
    fail "resumed run: exhaustive.search $(counter resumed exhaustive.search), expected 0"

expected=$(git rev-parse --short HEAD 2>/dev/null) || expected=unknown
mkdir "$DIR/outside"
(cd "$DIR/outside" && "$BIN" optimize -c 1KB --json --cache-dir "$DIR/outside/cache" >/dev/null) ||
    fail "run from outside the work tree exited $?"
stamped=$(grep -ao '"git_commit":"[^"]*"' "$DIR/outside/cache/framework.optimize.rlog" |
    head -n 1 | sed 's/.*:"\(.*\)"/\1/')
[ "$stamped" = "$expected" ] ||
    fail "log header written outside the work tree records commit '$stamped', expected '$expected'"

echo "cache-dir smoke: checksum $sum from disk; torn tail of $discarded bytes discarded; 4KB checksum $sum4k with the write levels from disk; 157 chunks journaled and replayed; header commit $stamped"
