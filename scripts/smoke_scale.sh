#!/bin/sh
# Scale smoke test: stream a 10^5-cell Rent's-rule synthetic netlist from
# gencircuit -cells and partition it end-to-end with the mlfpart engine,
# asserting a feasible result. This is the CI-sized version of the
# BENCH_PR9.json scale grid and of perfbench's rent-100k workload; it pins
# that the V-cycle path stays tractable and correct on every push. Exits
# non-zero on any failure.
#
#   CELLS=10000 scripts/smoke_scale.sh   # quicker local run
set -eu
cd "$(dirname "$0")/.."

CELLS=${CELLS:-100000}
# A synthetic CELLSxPINS part (see device.Parse) sized so the block count
# stays modest: at 10^5 cells it takes under a hundred devices. The same
# part is used at 10^4 and 10^5 cells, so runs at either size compare.
DEVICE=${DEVICE:-3000x800}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

fail() {
    echo "smoke_scale: FAIL: $*" >&2
    exit 1
}

go build -o "$workdir/gencircuit" ./cmd/gencircuit
go build -o "$workdir/fpart" ./cmd/fpart

"$workdir/gencircuit" -cells "$CELLS" -pads $((CELLS / 200)) -seed 1 \
    > "$workdir/scale.phg" || fail "gencircuit -cells $CELLS"

out=$("$workdir/fpart" -method mlfpart -device "$DEVICE" -format phg \
    -timeout 10m "$workdir/scale.phg") || fail "fpart -method mlfpart"

echo "$out" | grep '^result:' || fail "no result line in output"
echo "$out" | grep -q '^result: .*feasible=true' \
    || fail "mlfpart result not feasible at $CELLS cells on $DEVICE"

echo "smoke_scale: OK ($CELLS cells on $DEVICE)"
