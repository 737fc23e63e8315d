#!/bin/sh
# End-to-end smoke test of the fpartd daemon over real HTTP:
#   boot -> submit a built-in benchmark -> poll to completion -> resubmit
#   and assert a cache hit -> check /metrics -> graceful shutdown.
# Needs only curl and the go toolchain. Exits non-zero on any failure.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "smoke_service: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$workdir/fpartd.log" >&2 || true
    exit 1
}

go build -o "$workdir/fpartd" ./cmd/fpartd

"$workdir/fpartd" -addr 127.0.0.1:0 -workers 2 >"$workdir/fpartd.log" 2>&1 &
pid=$!

# The daemon logs "fpartd: listening on 127.0.0.1:PORT" once bound.
base=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/.*fpartd: listening on \([0-9.:]*\)$/\1/p' "$workdir/fpartd.log" | head -n 1)
    if [ -n "$addr" ]; then
        base="http://$addr"
        break
    fi
    kill -0 "$pid" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
[ -n "$base" ] || fail "daemon never reported its listen address"

curl -fsS "$base/healthz" >/dev/null || fail "healthz"

# Method discovery must list the engine registry, paper's algorithm first.
methods=$(curl -fsS "$base/methods") || fail "methods"
case "$methods" in
*'"name":"fpart"'*'"name":"kwayx"'*'"name":"multilevel"'*'"name":"mlfpart"'*) ;;
*) fail "method discovery missing registry entries: $methods" ;;
esac
case "$methods" in
*'"budgeted":true'*) ;;
*) fail "method discovery missing the budgeted capability: $methods" ;;
esac
names=$(printf '%s' "$methods" | grep -o '"name":' | wc -l)
summaries=$(printf '%s' "$methods" | grep -o '"summary":"[^"]' | wc -l)
[ "$names" -gt 0 ] && [ "$names" = "$summaries" ] ||
    fail "every method entry must carry a summary ($summaries of $names): $methods"

# Unknown methods are rejected at submit with the registry quoted.
code=$(curl -sS -o "$workdir/badmethod.json" -w '%{http_code}' -X POST \
    -d '{"circuit":"s9234","device":"XC3020","method":"anneal"}' \
    "$base/v1/partition") || fail "bad-method submit"
[ "$code" = "400" ] || fail "unknown method: want HTTP 400, got $code"
grep -q 'fpart' "$workdir/badmethod.json" || fail "400 body should quote the registry"

# Submit a built-in benchmark; first submission must be a fresh computation.
body='{"circuit":"s9234","device":"XC3020","method":"fpart"}'
resp=$(curl -fsS -X POST -d "$body" "$base/v1/partition") || fail "submit"
case "$resp" in
*'"id":"job-1"'*) ;;
*) fail "unexpected submit response: $resp" ;;
esac
case "$resp" in
*'"cached":true'*) fail "first submission reported cached: $resp" ;;
esac

# Poll until the job reaches a terminal state.
state=""
for _ in $(seq 1 300); do
    status=$(curl -fsS "$base/v1/jobs/job-1") || fail "poll"
    state=$(printf '%s' "$status" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    case "$state" in
    done) break ;;
    failed | canceled) fail "job ended $state: $status" ;;
    esac
    sleep 0.1
done
[ "$state" = "done" ] || fail "job never completed (last state: $state)"
case "$status" in
*'"feasible":true'*) ;;
*) fail "job done but not feasible: $status" ;;
esac

# The event stream must replay a complete run-start..run-end envelope.
events=$(curl -fsS "$base/v1/jobs/job-1/events") || fail "events"
case "$events" in
*run-start*run-end*) ;;
*) fail "event stream missing run envelope: $events" ;;
esac

# An identical resubmission must be answered from the result cache,
# synchronously (HTTP 200, cached:true, no new computation).
resp2=$(curl -fsS -X POST -d "$body" "$base/v1/partition") || fail "resubmit"
case "$resp2" in
*'"cached":true'*) ;;
*) fail "resubmission missed the cache: $resp2" ;;
esac

metrics=$(curl -fsS "$base/metrics") || fail "metrics"
case "$metrics" in
*'fpartd_computations_total 1'*) ;;
*) fail "expected exactly one computation in metrics" ;;
esac
case "$metrics" in
*'fpartd_cache_hits_total 1'*) ;;
*) fail "expected one cache hit in metrics" ;;
esac

# A vector-device, board-gated job: extra resource caps ride the
# "resources" field, the "board" field gates the result on a crossbar, and
# the finished view must carry a routable board report.
vbody='{"circuit":"s9234","device":"XC3020","resources":"DSP:4000,BRAM:2000","board":"crossbar:64"}'
vresp=$(curl -fsS -X POST -d "$vbody" "$base/v1/partition") || fail "vector submit"
vid=$(printf '%s' "$vresp" | sed -n 's/.*"id":"\(job-[0-9]*\)".*/\1/p')
[ -n "$vid" ] || fail "vector submit returned no job id: $vresp"
vstate=""
for _ in $(seq 1 300); do
    vstatus=$(curl -fsS "$base/v1/jobs/$vid") || fail "vector poll"
    vstate=$(printf '%s' "$vstatus" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    case "$vstate" in
    done) break ;;
    failed | canceled) fail "vector job ended $vstate: $vstatus" ;;
    esac
    sleep 0.1
done
[ "$vstate" = "done" ] || fail "vector job never completed (last state: $vstate)"
case "$vstatus" in
*'"feasible":true'*) ;;
*) fail "vector job done but not feasible: $vstatus" ;;
esac
case "$vstatus" in
*'"Routable":true'*) ;;
*) fail "board-gated job missing a routable board report: $vstatus" ;;
esac

# Malformed board specs are rejected at admission, naming the token.
code=$(curl -sS -o "$workdir/badboard.json" -w '%{http_code}' -X POST \
    -d '{"circuit":"s9234","device":"XC3020","board":"mesh:4xfour"}' \
    "$base/v1/partition") || fail "bad-board submit"
[ "$code" = "400" ] || fail "bad board spec: want HTTP 400, got $code"
grep -q '4xfour' "$workdir/badboard.json" || fail "400 body should name the bad board token"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
    fail "daemon ignored SIGTERM"
fi
wait "$pid" || fail "daemon exited non-zero on SIGTERM"
pid=""
grep -q 'fpartd: bye' "$workdir/fpartd.log" || fail "no clean shutdown log line"

echo "smoke_service: all green"
