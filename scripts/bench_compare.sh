#!/bin/sh
# Guard against wall-clock regressions between two bench artifacts: compare
# ns_per_op for every circuit/device instance present in both files and
# exit nonzero if any got slower by more than the tolerance. Works on any
# BENCH_*.json written by scripts/bench.sh (one instance object per line),
# including the recorded BENCH_PR4.json.
#
# Usage:
#   scripts/bench_compare.sh OLD.json NEW.json [-tolerance PCT]
#
#   -tolerance PCT  allowed slowdown in percent before failing (default 10)
set -eu

TOL=10
OLD=
NEW=
while [ $# -gt 0 ]; do
    case "$1" in
        -tolerance) TOL=$2; shift 2 ;;
        -*) echo "usage: scripts/bench_compare.sh OLD.json NEW.json [-tolerance PCT]" >&2; exit 2 ;;
        *) if [ -z "$OLD" ]; then OLD=$1; elif [ -z "$NEW" ]; then NEW=$1; else
               echo "usage: scripts/bench_compare.sh OLD.json NEW.json [-tolerance PCT]" >&2; exit 2
           fi; shift ;;
    esac
done
if [ -z "$OLD" ] || [ -z "$NEW" ]; then
    echo "usage: scripts/bench_compare.sh OLD.json NEW.json [-tolerance PCT]" >&2
    exit 2
fi

awk -v old_file="$OLD" -v tol="$TOL" '
function instance(line, dest,    c, d, ns) {
    if (match(line, /"circuit": *"[^"]*"/) == 0) return
    c = substr(line, RSTART, RLENGTH); gsub(/.*: *"|"$/, "", c)
    if (match(line, /"device": *"[^"]*"/) == 0) return
    d = substr(line, RSTART, RLENGTH); gsub(/.*: *"|"$/, "", d)
    if (match(line, /"ns_per_op": *[0-9.]+/) == 0) return
    ns = substr(line, RSTART, RLENGTH); gsub(/.*: */, "", ns)
    dest[c "/" d] = ns + 0
}
BEGIN {
    while ((getline line < old_file) > 0) instance(line, old)
    close(old_file)
}
{ instance($0, new) }
END {
    worst = 0
    for (k in new) {
        if (!(k in old)) {
            # An instance with no baseline is a silent coverage hole, not a
            # pass: report it per instance and fail, so a renamed or dropped
            # grid entry cannot slip through as "no regression".
            printf "MISSING    %-18s %12.0f ns/op (no baseline instance in old file)\n", k, new[k]
            missing++
            continue
        }
        if (old[k] <= 0) {
            printf "MISSING    %-18s %12.0f ns/op (baseline ns_per_op is zero)\n", k, new[k]
            missing++
            continue
        }
        matched++
        delta = (new[k] / old[k] - 1) * 100
        if (delta > tol) {
            printf "REGRESSION %-18s %12.0f -> %12.0f ns/op (%+.1f%%)\n", k, old[k], new[k], delta
            bad++
        }
        if (delta > worst) worst = delta
    }
    if (matched == 0) {
        print "bench_compare: no matching circuit/device instances between the two files" > "/dev/stderr"
        exit 2
    }
    printf "bench_compare: %d instances matched, worst slowdown %+.1f%% (tolerance %s%%)\n", matched, worst, tol
    if (missing > 0) {
        printf "bench_compare: %d instance(s) missing from the baseline\n", missing > "/dev/stderr"
        exit 2
    }
    if (bad > 0) exit 1
}
' "$NEW"
