#!/usr/bin/env bash
# Serve-bench smoke, run by CI and usable locally: build the tools,
# write a snapshot for a tiny corpus, deep-verify it with snapverify,
# boot intentd from it (mmap), run
# the intentload closed-loop harness against it, and validate the
# BENCH_serve.json it emits. Also boots a replica polling the origin's
# /v1/snapshot endpoint and proves the poll/swap/degrade loop works
# end to end. With BGPINTENT_SERVE_GUARD=1 the measured p99 is compared
# against the committed BENCH_serve.json baseline (+25% budget).
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
bin="$work/bin"
log="$work/intentd.log"
replog="$work/replica.log"
pid=""
rpid=""
cleanup() {
    [ -n "$rpid" ] && kill -9 "$rpid" 2>/dev/null || true
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "SERVE-BENCH FAIL: $*" >&2
    [ -s "$log" ] && sed 's/^/  intentd: /' "$log" >&2
    [ -s "$replog" ] && sed 's/^/  replica: /' "$replog" >&2
    exit 1
}

echo "== build"
go build -o "$bin/" ./cmd/gencorpus ./cmd/intentinfer ./cmd/intentd ./cmd/intentload ./cmd/snapverify

echo "== generate tiny corpus + snapshot"
"$bin/gencorpus" -out "$work/corpus" -scale tiny -days 1 >/dev/null
"$bin/intentinfer" -rib "$work/corpus/*.rib.mrt" -updates "$work/corpus/*.updates.mrt" \
    -as2org "$work/corpus/as2org.txt" -format snapshot -o "$work/intent.snap" >/dev/null

echo "== deep-verify the written snapshot"
"$bin/snapverify" -verify "$work/intent.snap" >/dev/null || fail "snapshot fails verification"

start_intentd() {
    : > "$log"
    "$bin/intentd" -addr 127.0.0.1:0 -drain-timeout 5s "$@" >"$log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 300); do
        addr=$(sed -n 's/^listening on //p' "$log" | head -1)
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || fail "intentd exited during startup"
        sleep 0.1
    done
    [ -n "$addr" ] || fail "intentd never reported its listen address"
}

stop_pid() {
    local p=$1
    kill -TERM "$p" 2>/dev/null || true
    for _ in $(seq 1 100); do
        kill -0 "$p" 2>/dev/null || return 0
        sleep 0.1
    done
    fail "process $p did not exit within 10s of SIGTERM"
}

curl_ok() { curl -sf --max-time 10 "$@" || fail "curl $* failed"; }

echo "== boot origin intentd from the snapshot"
start_intentd -snapshot "$work/intent.snap"
origin_addr=$addr
curl_ok "http://$origin_addr/v1/health" | grep '"mode": "mmap"' >/dev/null || fail "origin is not serving the mmap path"
curl_ok "http://$origin_addr/metrics" | grep '^intentd_snapshot_mmap 1$' >/dev/null || fail "mmap gauge not set"

echo "== replica polls the origin's /v1/snapshot"
: > "$replog"
"$bin/intentd" -addr 127.0.0.1:0 -drain-timeout 5s \
    -replica -snapshot-url "http://$origin_addr/v1/snapshot" \
    -poll-interval 1s -snapshot-cache "$work/replica-cache" >"$replog" 2>&1 &
rpid=$!
rep_addr=""
for _ in $(seq 1 300); do
    rep_addr=$(sed -n 's/^listening on //p' "$replog" | head -1)
    [ -n "$rep_addr" ] && break
    kill -0 "$rpid" 2>/dev/null || fail "replica intentd exited during startup"
    sleep 0.1
done
[ -n "$rep_addr" ] || fail "replica never reported its listen address"
for _ in $(seq 1 100); do
    status=$(curl -sf --max-time 10 "http://$rep_addr/v1/health" | sed -n 's/.*"status": "\([a-z]*\)".*/\1/p' | head -1)
    [ "$status" = "healthy" ] && break
    sleep 0.1
done
[ "$status" = "healthy" ] || fail "replica never became healthy (status: ${status:-none})"
rep_health=$(curl_ok "http://$rep_addr/v1/health")
echo "$rep_health" | grep '"source": "replica-url"' >/dev/null || fail "replica provenance missing"
echo "$rep_health" | grep '"mode": "replica"' >/dev/null || fail "replica mode missing"
comm=$(curl_ok "http://$origin_addr/v1/stats" | sed -n 's/.*"communities": \([0-9]*\).*/\1/p' | head -1)
[ -n "$comm" ] || fail "origin stats unreadable"

echo "== replica degrades (not dies) when the origin disappears"
stop_pid "$pid"; pid=""
sleep 2.5
curl_ok "http://$rep_addr/v1/stats" >/dev/null || fail "replica stopped serving after origin death"
curl -sf --max-time 10 "http://$rep_addr/v1/health" | grep -E '"status": "(stale|healthy)"' >/dev/null \
    || fail "replica health unreadable after origin death"
curl -sf --max-time 10 "http://$rep_addr/metrics" | grep '^intentd_replica_poll_errors_total [1-9]' >/dev/null \
    || fail "replica poll errors not counted after origin death"
stop_pid "$rpid"; rpid=""

echo "== load harness against a fresh origin"
start_intentd -snapshot "$work/intent.snap"
"$bin/intentload" -url "http://$addr" -snapshot "$work/intent.snap" \
    -mode closed -duration "${BGPINTENT_SERVE_DURATION:-5s}" -concurrency 4 -seed 1 \
    -server-pid "$pid" -out "$work/BENCH_serve.json" || fail "intentload run failed"
stop_pid "$pid"; pid=""

echo "== BENCH_serve.json schema"
"$bin/intentload" -check "$work/BENCH_serve.json" || fail "report schema validation"
python3 - "$work/BENCH_serve.json" <<'PYEOF' || fail "report field validation"
import json, sys
r = json.load(open(sys.argv[1]))
required = ["go_version", "num_cpu", "gomaxprocs", "mode", "duration_seconds",
            "concurrency", "seed", "paths", "requests", "errors", "qps",
            "p50_us", "p90_us", "p99_us", "p999_us", "max_us", "mean_us", "rss_bytes"]
missing = [k for k in required if k not in r]
if missing:
    sys.exit(f"missing fields: {missing}")
if r["requests"] <= 0 or r["qps"] <= 0:
    sys.exit(f"implausible run: {r['requests']} requests, {r['qps']} qps")
if not (r["p50_us"] <= r["p99_us"] <= r["p999_us"] <= r["max_us"]):
    sys.exit("latency quantiles out of order")
if r["rss_bytes"] <= 0:
    sys.exit("rss_bytes not sampled")
print(f"report OK: {r['qps']:.0f} qps, p99 {r['p99_us']:.0f}us, rss {r['rss_bytes']>>20}MiB")
PYEOF

if [ "${BGPINTENT_SERVE_GUARD:-0}" = "1" ] && [ -f BENCH_serve.json ]; then
    echo "== p99 regression guard vs committed baseline"
    # The committed baseline was measured on a quiet machine; CI runners
    # are slower and noisier, so the smoke budget is 2x (catches losing
    # the cached/zero-alloc serving path, not scheduler jitter). Tighten
    # via BGPINTENT_SERVE_MAX_REGRESS for same-machine comparisons —
    # intentload's own default budget is 0.25.
    "$bin/intentload" -check "$work/BENCH_serve.json" -baseline BENCH_serve.json \
        -max-regress "${BGPINTENT_SERVE_MAX_REGRESS:-1.0}" \
        || fail "p99 regressed past the committed baseline budget"
fi

echo "SERVE-BENCH OK"
