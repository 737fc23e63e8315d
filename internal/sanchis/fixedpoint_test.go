package sanchis

// Tests for the fixed-point pass memo: its premise (a pass is a function
// of the assignment within one Improve call) and its scope (what it
// records, and which passes it may skip).

import (
	"context"
	"slices"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// goldenEngine binds a fresh engine under variant to golden seed's
// instance and prepares it for passes over all of its blocks.
func goldenEngine(t *testing.T, seed int64, variant int) (*Engine, *partition.Partition) {
	t.Helper()
	h, dev, assign, k := goldenInstance(seed)
	p, err := partition.FromAssignment(h, dev, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]partition.BlockID, k)
	for i := range blocks {
		blocks[i] = partition.BlockID(i)
	}
	cfg := Default()
	kernelVariants[variant].mut(&cfg)
	e := New(p, cfg)
	e.prepare(blocks, partition.BlockID(k-1), device.LowerBound(h, dev))
	return e, p
}

// TestPassIsAFunctionOfState: once a pass ends without improvement, a
// second pass from that state replays its journal move for move and
// leaves the same assignment — collecting the restart stacks or not, and
// after the engine has run a pass from another state in between, as a
// restart series does before it reaches the state again.
func TestPassIsAFunctionOfState(t *testing.T) {
	ctx := context.Background()
	replayed := 0
	for seed := int64(1); seed <= 6; seed++ {
		for vi, vt := range kernelVariants {
			e, p := goldenEngine(t, seed, vi)
			start := p.Snapshot()
			for pass := 0; ; pass++ {
				if pass == 100 {
					t.Fatalf("seed %d %s: no non-improving pass in 100", seed, vt.name)
				}
				if improved, _ := e.runPass(ctx, nil); !improved {
					break
				}
			}
			first := slices.Clone(e.journal)
			fixed := p.Snapshot()
			collect := &stacks{depth: 4, cost: e.cfg.Cost}
			for i, col := range []*stacks{collect, nil, nil} {
				if i == 2 {
					// Disturb every per-pass structure, then come back.
					p.Restore(start)
					e.runPass(ctx, nil)
					p.Restore(fixed)
				}
				improved, moves := e.runPass(ctx, col)
				if improved || moves != len(first) || !slices.Equal(e.journal, first) {
					t.Fatalf("seed %d %s replay %d: improved %v after %d moves, want a replay of the %d-move non-improving pass",
						seed, vt.name, i, improved, moves, len(first))
				}
				for v := 0; v < p.Hypergraph().NumNodes(); v++ {
					if got := p.Block(hypergraph.NodeID(v)); got != fixed.Assign(hypergraph.NodeID(v)) {
						t.Fatalf("seed %d %s replay %d: node %d ends in block %d, want %d", seed, vt.name, i, v, got, fixed.Assign(hypergraph.NodeID(v)))
					}
				}
			}
			retireSnaps(e, collect.semi)
			retireSnaps(e, collect.infeas)
			if len(first) > 0 {
				replayed++
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no non-improving pass moved a cell; the replay check saw nothing")
	}
}

// TestFixedPointMemoScope pins what the memo records and skips: a series
// cut short by ctx records nothing, a series that ends without
// improvement records its end state, a later series from that state runs
// no pass, and the stack-collecting pass runs even from a fixed point.
func TestFixedPointMemoScope(t *testing.T) {
	ctx := context.Background()
	e, _ := goldenEngine(t, 2, 0)
	var st Stats
	e.st = &st
	defer func() { e.st = new(Stats) }()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	e.series(cancelled, nil)
	if len(e.fixed) != 0 {
		t.Fatalf("a cancelled series recorded %d fixed points", len(e.fixed))
	}
	st = Stats{}
	e.series(ctx, nil)
	if st.Passes < 2 || len(e.fixed) != 1 {
		t.Fatalf("live series after a cancelled one: %d passes, %d fixed points; want an improving pass and one record", st.Passes, len(e.fixed))
	}

	st = Stats{}
	e.series(ctx, nil)
	if st.Passes != 0 || st.MovesApplied != 0 || st.BucketOps != 0 {
		t.Fatalf("series from a recorded fixed point did work: %+v", st)
	}

	collect := &stacks{depth: e.cfg.StackDepth, cost: e.cfg.Cost}
	e.series(ctx, collect)
	if st.Passes != 1 || len(collect.semi)+len(collect.infeas) == 0 {
		t.Fatalf("collecting series from a fixed point: %d passes, %d stacked solutions; want the collecting pass to run",
			st.Passes, len(collect.semi)+len(collect.infeas))
	}
	retireSnaps(e, collect.semi)
	retireSnaps(e, collect.infeas)
}

// TestFixedPointsDoNotOutliveImprove: the records belong to one Improve
// call. A second call from the end state of the first runs its collecting
// pass and reports the same counters as a fresh engine from that state.
func TestFixedPointsDoNotOutliveImprove(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		e, p := goldenEngine(t, seed, 0)
		blocks, rem, m := e.blocks, e.remainder, e.m
		if _, err := e.ImproveCtx(ctx, blocks, rem, m); err != nil {
			t.Fatal(err)
		}
		if len(e.fixed) != 0 {
			t.Fatalf("seed %d: %d fixed points outlived the call", seed, len(e.fixed))
		}
		q, err := partition.FromAssignment(p.Hypergraph(), p.Device(), assignment(p), p.NumBlocks())
		if err != nil {
			t.Fatal(err)
		}
		again, err := e.ImproveCtx(ctx, blocks, rem, m)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(q, e.cfg).ImproveCtx(ctx, blocks, rem, m)
		if err != nil {
			t.Fatal(err)
		}
		if again.Passes == 0 || again != fresh {
			t.Fatalf("seed %d: reused engine %+v, fresh engine %+v", seed, again, fresh)
		}
	}
}

// assignment returns p's block of every node.
func assignment(p *partition.Partition) []partition.BlockID {
	out := make([]partition.BlockID, p.Hypergraph().NumNodes())
	for v := range out {
		out[v] = p.Block(hypergraph.NodeID(v))
	}
	return out
}
