#!/bin/sh
# End-to-end smoke test of a three-peer fpartd cluster over real HTTP:
#   boot 3 peers with disk stores -> reject bad boot flags -> submit to a
#   non-owner and assert consistent-hash forwarding + owner cache hit ->
#   pin a backlog on one peer and assert idle peers steal it -> SIGKILL
#   the owner and assert local fallback -> restart the owner and assert
#   the disk store answers without recomputing -> batch fan-out -> drain.
# Needs only curl and the go toolchain. Exits non-zero on any failure.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid1="" pid2="" pid3=""
cleanup() {
    for p in "$pid1" "$pid2" "$pid3"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "smoke_cluster: FAIL: $*" >&2
    for i in 1 2 3; do
        echo "--- peer $i log ---" >&2
        cat "$workdir/peer$i.log" >&2 2>/dev/null || true
    done
    exit 1
}

go build -o "$workdir/fpartd" ./cmd/fpartd

# Boot validation: negative sizes are rejected with the flag named.
if "$workdir/fpartd" -workers -1 2>"$workdir/neg.log"; then
    fail "-workers -1 must be rejected at boot"
fi
grep -q -- '-workers' "$workdir/neg.log" || fail "boot error must name -workers"
if "$workdir/fpartd" -grace -1s 2>"$workdir/neg.log"; then
    fail "-grace -1s must be rejected at boot"
fi
grep -q -- '-grace' "$workdir/neg.log" || fail "boot error must name -grace"
# Admission has no degradation threshold: the old flag is unknown.
if "$workdir/fpartd" -degrade-at 0.5 2>"$workdir/neg.log"; then
    fail "-degrade-at must be an unknown flag"
fi
grep -q 'not defined: -degrade-at' "$workdir/neg.log" || fail "boot error must reject -degrade-at as undefined"

# start_peer INDEX PORT PEERS: boot one daemon with its own data dir.
start_peer() {
    mkdir -p "$workdir/data$1"
    "$workdir/fpartd" -addr "127.0.0.1:$2" -advertise "127.0.0.1:$2" \
        -peers "$3" -workers 1 -steal-interval 100ms \
        -data-dir "$workdir/data$1" \
        >"$workdir/peer$1.log" 2>&1 &
    eval "pid$1=\$!"
}

# wait_bound INDEX: wait until the peer logs its listen line.
wait_bound() {
    for _ in $(seq 1 50); do
        grep -q 'fpartd: listening on' "$workdir/peer$1.log" 2>/dev/null && return 0
        eval "kill -0 \$pid$1" 2>/dev/null || return 1
        sleep 0.1
    done
    return 1
}

# The membership needs fixed ports before any peer starts; derive a block
# from the PID and retry a few times if something else holds them.
base=$((($$ % 20000) + 20000))
booted=""
for _ in 1 2 3 4 5; do
    p1=$base p2=$((base + 1)) p3=$((base + 2))
    peers="127.0.0.1:$p1,127.0.0.1:$p2,127.0.0.1:$p3"
    rm -rf "$workdir"/data1 "$workdir"/data2 "$workdir"/data3
    start_peer 1 "$p1" "$peers"
    start_peer 2 "$p2" "$peers"
    start_peer 3 "$p3" "$peers"
    if wait_bound 1 && wait_bound 2 && wait_bound 3; then
        booted=1
        break
    fi
    for p in "$pid1" "$pid2" "$pid3"; do kill -9 "$p" 2>/dev/null || true; done
    pid1="" pid2="" pid3=""
    base=$((base + 7))
done
[ -n "$booted" ] || fail "could not boot three peers on free ports"

# submit URL BODY [extra curl args]: POST a submission, keeping response
# headers in $workdir/hdr for peer_of.
submit() {
    url=$1 body=$2
    shift 2
    curl -fsS -D "$workdir/hdr" "$@" -X POST -d "$body" "$url/v1/partition"
}
peer_of() {
    sed -n 's/^[Xx]-[Ff]part-[Pp]eer: *//p' "$workdir/hdr" | tr -d '\r' | head -n 1
}
job_of() {
    printf '%s' "$1" | sed -n 's/.*"id":"\(job-[0-9]*\)".*/\1/p'
}

# metric_has BASE PATTERN: true when the peer's /metrics matches PATTERN.
metric_has() {
    m=$(curl -fsS "$1/metrics") || fail "metrics scrape on $1"
    printf '%s\n' "$m" | grep -q "$2"
}

# wait_done BASE JOBID: poll until the job completes.
wait_done() {
    state=""
    for _ in $(seq 1 600); do
        st=$(curl -fsS "$1/v1/jobs/$2") || fail "poll $2 on $1"
        state=$(printf '%s' "$st" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
        [ "$state" = "done" ] && return 0
        case "$state" in
        failed | canceled) fail "job $2 ended $state: $st" ;;
        esac
        sleep 0.1
    done
    fail "job $2 on $1 never completed (last state: $state)"
}

# --- 1. Consistent-hash forwarding -----------------------------------------
body='{"circuit":"s9234","device":"XC3020","method":"fpart"}'
resp=$(submit "http://127.0.0.1:$p1" "$body") || fail "initial submit"
owner=$(peer_of)
[ -n "$owner" ] || fail "submission response carries no X-Fpart-Peer header"
job=$(job_of "$resp")
[ -n "$job" ] || fail "no job id in: $resp"
wait_done "http://$owner" "$job"

# Pick a peer that is NOT the owner and resubmit: the request must be
# forwarded to the owner and answered from its cache.
sub=""
for port in $p1 $p2 $p3; do
    if [ "127.0.0.1:$port" != "$owner" ]; then
        sub="127.0.0.1:$port"
        break
    fi
done
[ -n "$sub" ] || fail "all peers claim to be the owner"
resp2=$(submit "http://$sub" "$body") || fail "forwarded resubmit"
[ "$(peer_of)" = "$owner" ] || fail "resubmission handled by $(peer_of), want owner $owner"
case "$resp2" in
*'"cached":true'*) ;;
*) fail "forwarded resubmission missed the owner cache: $resp2" ;;
esac
metric_has "http://$sub" '^fpartd_forward_total [1-9]' ||
    fail "forward not counted on $sub"

# --- 2. Work stealing -------------------------------------------------------
# Pin a backlog on one single-worker peer (the forwarded marker makes it
# execute locally); its idle neighbours must steal part of it.
steal_jobs=""
for spec in XC3042:fpart XC3090:fpart XC2064:fpart XC3042:multilevel XC3090:multilevel; do
    dev=${spec%:*} method=${spec#*:}
    r=$(submit "http://$sub" "{\"circuit\":\"s9234\",\"device\":\"$dev\",\"method\":\"$method\"}" \
        -H 'X-Fpart-Forwarded: smoke') || fail "pinned submit for $spec"
    id=$(job_of "$r")
    [ -n "$id" ] || fail "no job id for pinned $spec: $r"
    steal_jobs="$steal_jobs $id"
done
stolen=""
for _ in $(seq 1 300); do
    if metric_has "http://$sub" '^fpartd_stolen_served_total [1-9]'; then
        stolen=1
        break
    fi
    sleep 0.1
done
[ -n "$stolen" ] || fail "no queued job was ever stolen from $sub"
for id in $steal_jobs; do
    wait_done "http://$sub" "$id"
done

# --- 3. Owner death: forward falls back to local execution ------------------
ownpid="" ownidx=""
for i in 1 2 3; do
    eval "port=\$p$i"
    if [ "127.0.0.1:$port" = "$owner" ]; then
        eval "ownpid=\$pid$i"
        ownidx=$i
    fi
done
[ -n "$ownpid" ] || fail "cannot map owner $owner to a PID"
kill -9 "$ownpid"
for _ in $(seq 1 50); do
    kill -0 "$ownpid" 2>/dev/null || break
    sleep 0.1
done
eval "pid$ownidx=''"

resp3=$(submit "http://$sub" "$body") || fail "submit with dead owner"
[ "$(peer_of)" = "$sub" ] || fail "dead-owner submission handled by $(peer_of), want local $sub"
job3=$(job_of "$resp3")
wait_done "http://$sub" "$job3"
metric_has "http://$sub" '^fpartd_forward_fallback_total [1-9]' ||
    fail "owner-down fallback not counted on $sub"

# --- 4. Restart: the disk store answers without recomputing -----------------
eval "ownport=\$p$ownidx"
start_peer "$ownidx" "$ownport" "$peers"
wait_bound "$ownidx" || fail "owner did not restart"
resp4=$(submit "http://$owner" "$body" -H 'X-Fpart-Forwarded: smoke') || fail "post-restart submit"
case "$resp4" in
*'"cached":true'*) ;;
*) fail "restarted owner recomputed instead of reading its disk store: $resp4" ;;
esac
metric_has "http://$owner" '^fpartd_store_hits_total [1-9]' ||
    fail "disk store hit not counted after restart"

# --- 5. Batch fan-out -------------------------------------------------------
bresp=$(curl -fsS -X POST -d '{"circuit":"s9234","devices":["XC3020","XC3042"]}' \
    "http://$sub/v1/batch") || fail "batch submit"
gid=$(printf '%s' "$bresp" | sed -n 's/.*"id":"\(grp-[0-9]*\)".*/\1/p')
[ -n "$gid" ] || fail "no group id in: $bresp"
complete=""
for _ in $(seq 1 600); do
    g=$(curl -fsS "http://$sub/v1/groups/$gid") || fail "group poll"
    case "$g" in
    *'"complete":true'*)
        complete=1
        break
        ;;
    esac
    sleep 0.1
done
[ -n "$complete" ] || fail "batch group never completed: $g"

# --- 6. Drain ---------------------------------------------------------------
for i in 1 2 3; do
    eval "p=\$pid$i"
    [ -n "$p" ] && kill -TERM "$p" 2>/dev/null || true
done
for i in 1 2 3; do
    eval "p=\$pid$i"
    [ -n "$p" ] || continue
    for _ in $(seq 1 100); do
        kill -0 "$p" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$p" 2>/dev/null && fail "peer $i ignored SIGTERM"
    eval "pid$i=''"
done

echo "smoke_cluster: all green"
