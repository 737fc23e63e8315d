package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
)

// Member is one Race entrant: a registered method name plus its per-member
// options. Options.Budget is overwritten with the race's shared budget;
// Options.Label defaults to "race[i]/<method>".
type Member struct {
	Method  string
	Options Options
}

// Race runs several registered engines on the same circuit concurrently
// and returns the best result. It generalizes core.Portfolio — which races
// configuration variants of one algorithm — to an engine-agnostic
// portfolio: any mix of registered methods competes under one shared
// core.Budget, so "fpart vs flow vs multilevel" is one call.
//
// Winner selection is the same lexicographic order as core.Portfolio:
// feasible beats infeasible, then fewer devices, then fewer total
// terminals, ties resolved to the lowest member index — deterministic at
// any budget capacity and any goroutine schedule. When member i finishes
// feasible at the lower bound (K = M, provably optimal on device count)
// the members after it are cancelled; their context.Canceled errors are
// absorbed. Members before it run to completion, and the lowest-index
// member at the bound wins, so no cancellation can change the winner.
//
// Concurrency follows the Budget discipline of the rest of the pipeline:
// the caller is assumed to hold one token already (driver.RunOpts does),
// member 0 runs on the caller's goroutine under that token, and the other
// members spawn only when budget.TryAcquire grants a spare token — a
// saturated machine degrades to the classic one-by-one portfolio, never
// oversubscription. Member sinks are serialized with one shared lock, so
// several members may point at the same obs.Sink.
func Race(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, members []Member, budget *core.Budget) (*Result, error) {
	if len(members) == 0 {
		return nil, errors.New("engine: Race with no members")
	}
	engines := make([]Engine, len(members))
	for i, m := range members {
		eng, ok := Lookup(m.Method)
		if !ok {
			return nil, fmt.Errorf("unknown method %q (valid: %v)", m.Method, Names())
		}
		if m.Options.Board != nil && !eng.Caps().BoardAware {
			return nil, fmt.Errorf("method %q is not board-aware", m.Method)
		}
		engines[i] = eng
	}
	// One context per member, so an optimal member cancels exactly the
	// members after it.
	ctxs := make([]context.Context, len(members))
	cancels := make([]context.CancelFunc, len(members))
	for i := range members {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
		defer cancels[i]()
	}

	opts := make([]Options, len(members))
	var sinkMu sync.Mutex
	for i, m := range members {
		opts[i] = m.Options
		opts[i].Sink = obs.Locked(&sinkMu, opts[i].Sink)
		opts[i].Budget = budget
		if opts[i].Label == "" {
			opts[i].Label = fmt.Sprintf("race[%d]/%s", i, m.Method)
		}
	}

	type slot struct {
		res *Result
		err error
	}
	out := make([]slot, len(members))
	runOne := func(i int) {
		res, err := engines[i].Run(ctxs[i], h, dev, opts[i])
		if err == nil {
			// Board-aware members are gated here, not only in Run dispatch:
			// runOne calls the engine directly, and the K=M early cancel
			// below must see the post-gate feasibility, or a board-infeasible
			// member could cancel members that would have routed.
			gateBoard(res, opts[i].Board)
		}
		out[i] = slot{res, err}
		if err == nil && atLowerBound(res) {
			for _, c := range cancels[i+1:] {
				c() // provably optimal: stop the later members
			}
		}
	}
	var wg sync.WaitGroup
	spawned := make([]bool, len(members))
	for i := 1; i < len(members); i++ {
		if budget.TryAcquire() {
			spawned[i] = true
			wg.Add(1)
			// Tag profiler samples on race goroutines with the engine they
			// run, so a profile of a mixed-method race splits by method.
			labels := pprof.Labels("method", members[i].Method, "candidate", opts[i].Label)
			go func(i int) {
				pprof.Do(ctxs[i], labels, func(context.Context) {
					defer wg.Done()
					defer budget.Release()
					runOne(i)
				})
			}(i)
		}
	}
	runOne(0)
	for i := 1; i < len(members); i++ {
		if !spawned[i] {
			runOne(i)
		}
	}
	wg.Wait()

	var best *Result
	var firstErr error
	for _, s := range out {
		if s.err != nil {
			// A member cancelled by the winner's cancel() is not a failure;
			// a parent-context cancellation is handled below.
			if !errors.Is(s.err, context.Canceled) && !errors.Is(s.err, context.DeadlineExceeded) && firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		if best == nil || betterResult(s.res, best) {
			best = s.res
		}
		if atLowerBound(s.res) {
			break // later members may have been cancelled: the lowest optimal index wins
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, context.Canceled
	}
	return best, nil
}

// atLowerBound reports whether r is provably optimal on device count:
// feasible with K = M.
func atLowerBound(r *Result) bool { return r.Feasible && r.K == r.M }

// betterResult orders race outcomes: feasible, then device count, then
// total terminals. Strict, so the first member wins ties.
func betterResult(a, b *Result) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.K != b.K {
		return a.K < b.K
	}
	return a.Partition.TerminalSum() < b.Partition.TerminalSum()
}
