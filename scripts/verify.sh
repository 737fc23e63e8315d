#!/bin/sh
# The repository's verify gate (see ROADMAP.md):
# build + vet (both modules) + gofmt + full tests + a repeated racer-determinism test +
# race run of the concurrency tests +
# a short-mode pass over every benchmark so the harness cannot silently rot +
# a run of every example + the scale, daemon and cluster smoke tests over
# the real binaries.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# perfbench/ is its own module, so the two lines above skip it; compile and
# vet it here so a change to an API it imports fails the gate, not the
# benchmark run.
(cd perfbench && go build -o /dev/null . && go vet .)
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi
# Hypergraph.AuxOf, Device.AuxCap, the two SpecWidth fields and
# service.Config.DegradeAt are deprecated stubs kept only for perfbench/:
# no other Go code may use them.
# Comments and the declaring lines themselves are allowed.
stale=$(grep -rnwE --include='*.go' --exclude-dir=perfbench 'AuxOf|AuxCap|SpecWidth|DegradeAt' . |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|(AuxCap|SpecWidth)[[:space:]]+int$|DegradeAt[[:space:]]+float64$|func \(h \*Hypergraph\) AuxOf\()' || true)
if [ -n "$stale" ]; then
    echo "deprecated stub used outside perfbench/:" >&2
    echo "$stale" >&2
    exit 1
fi
go test ./...
# The racer (core.Portfolio, fanned out by core.Budget.Fan) must pick the
# same winner at any goroutine schedule; repeat the registry differential so
# a schedule-dependent winner fails here instead of passing most runs.
go test -count=5 -run TestRegistryDispatchMatchesDirectCalls ./internal/driver
# TestFlowTablesGolden and TestRent100kGolden run on one goroutine, so the
# race detector has nothing to check there and it costs ten times their
# plain run; the go test ./... leg above still runs them.
go test -race -skip 'TestFlowTablesGolden|TestRent100kGolden' ./internal/obs ./internal/core ./internal/sanchis ./internal/seed ./internal/service ./internal/store ./internal/cluster ./internal/driver ./internal/engine ./internal/flow ./internal/multilevel ./internal/mlfpart ./cmd/fpartd
# The worker pool behind bench.Suite and the sensitivity table is the one
# goroutine site in internal/bench; the whole package is slow under -race,
# so race only the Suite tests.
go test -race -run TestSuite ./internal/bench
go test -short -run '^$' -bench . -benchtime 1x . ./internal/sanchis ./internal/netlist \
    ./internal/seed ./internal/flow ./internal/multilevel
# go build compiles the examples but never runs them; run each so its
# output cannot rot unnoticed. set -e fails the gate on a non-zero exit.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done
./scripts/smoke_scale.sh
./scripts/smoke_service.sh
./scripts/smoke_cluster.sh
echo "verify: all green"
