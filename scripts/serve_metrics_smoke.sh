#!/bin/sh
# Serve-metrics smoke: start the daemon, send one optimize over the
# frame protocol (its `query --json` answer must print the served
# payload whole), scrape GET /metrics through the HTTP shim with stock
# curl, and assert the exposition (a) carries the required series and
# (b) parses as Prometheus text format 0.0.4 (every non-comment line is
# `name[{labels}] value` with a numeric value).  Exercises exactly the
# path a Prometheus scrape job would.
set -eu

BIN=${BIN:-_build/default/bin/sram_opt.exe}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/serve_metrics_smoke.XXXXXX")
SOCK="$DIR/serve.sock"
SRV_PID=

cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null && wait "$SRV_PID" 2>/dev/null
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

"$BIN" serve --socket "$SOCK" --flight-dir "$DIR/flight" >"$DIR/serve.log" 2>&1 &
SRV_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: server socket never appeared"; cat "$DIR/serve.log"; exit 1; }

# Populate request histograms, memo stats and the trace-id path.  The
# JSON is the served payload as the server sent it: every top-level key,
# the strategy among them.
ANSWER="$DIR/answer.json"
"$BIN" query --socket "$SOCK" --capacity 1KB --reduced \
    --trace-id smoke-metrics-1 --json >"$ANSWER"
for key in '{"capacity_bits":8192,' '"config":"6T-HVT-M2",' \
    '"strategy":"exhaustive",' '"checksum":"' '"eval_s":' '"result":{'
do
    grep -qF "$key" "$ANSWER" || {
        echo "FAIL: query --json lacks $key"
        cat "$ANSWER"
        exit 1
    }
done

OUT="$DIR/metrics.txt"
curl -fsS --unix-socket "$SOCK" http://localhost/metrics -o "$OUT"

for series in \
    '^# TYPE sram_opt_serve_requests_total counter' \
    '^sram_opt_serve_requests_total [0-9]' \
    '^sram_opt_serve_e2e_seconds_window{window="10s",quantile="0.99"}' \
    '^sram_opt_serve_e2e_seconds{quantile="0.5"}' \
    '^sram_opt_serve_events_window{event="serve_deadline_expired",window="60s"}' \
    '^sram_opt_memo_hit_rate' \
    '^sram_opt_gc_major_words_total' \
    '^sram_opt_build_info'
do
    grep -q "$series" "$OUT" || {
        echo "FAIL: missing series: $series"
        cat "$OUT"
        exit 1
    }
done

# Format check: every non-empty non-comment line must end in a numeric
# value (exposition floats, integers, or +/-Inf / NaN).
awk '
    /^#/ || NF == 0 { next }
    $NF !~ /^[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$/ {
        print "FAIL: unparseable metrics line: " $0
        bad = 1
    }
    END { exit bad }
' "$OUT"

# /healthz answers on the same shim; unknown paths are 404.
[ "$(curl -s --unix-socket "$SOCK" http://localhost/healthz)" = "ok" ] || {
    echo "FAIL: /healthz did not answer ok"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' --unix-socket "$SOCK" http://localhost/nope)
[ "$code" = "404" ] || { echo "FAIL: expected 404 for /nope, got $code"; exit 1; }

"$BIN" query --socket "$SOCK" -e shutdown
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=

echo "serve-metrics smoke: OK ($(grep -c '^sram_opt_' "$OUT") samples scraped)"
