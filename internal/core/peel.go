package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// ErrUnsplittable is returned when the circuit contains a node that can
// never fit the device on its own.
var ErrUnsplittable = errors.New("core: circuit contains a node larger than the device capacity")

// CheckInput is the input contract every partitioner of the repository
// enforces before doing any work, in this order: ctx is still live, dev is
// valid, the circuit is not empty, and every interior node fits the device
// on its own — its size within S_MAX and its demand within every resource
// cap. An unplaceable node is reported as ErrUnsplittable.
func CheckInput(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := dev.Validate(); err != nil {
		return err
	}
	if h.NumNodes() == 0 {
		return errors.New("core: empty circuit")
	}
	resCols := make([][]int32, len(dev.Resources))
	for ri, r := range dev.Resources {
		resCols[ri] = h.ResourceColumn(r.Name)
	}
	smax := dev.SMax()
	for _, id := range h.InteriorIDs() {
		if h.SizeOf(id) > smax {
			return fmt.Errorf("%w: node %q has size %d > S_MAX %d",
				ErrUnsplittable, h.NodeName(id), h.SizeOf(id), smax)
		}
		for ri, r := range dev.Resources {
			if resCols[ri] != nil && int(resCols[ri][id]) > r.Cap {
				return fmt.Errorf("%w: node %q needs %d %s > cap %d",
					ErrUnsplittable, h.NodeName(id), resCols[ri][id], r.Name, r.Cap)
			}
		}
	}
	return nil
}

// A Carve picks the node set of the next block to peel off the remainder
// rem of p (p.Device() is the target device). Returning no nodes stops the
// peel. Effort the carve spends on its own improvement passes may be
// folded into st; cancelling ctx must make it return ctx's error.
type Carve func(ctx context.Context, p *partition.Partition, rem partition.BlockID, st *Stats) ([]hypergraph.NodeID, error)

// Peel runs the recursive peeling of Algorithm 1 with carve in place of
// FPART's seeded bipartition and improvement schedule: each iteration
// moves the carved set into a new block, until the remainder fits the
// device, the carve comes back empty, the remainder empties, or the
// device.BlockCap safety cap is reached. It shares everything else with
// Run — the input check, cancellation polling, event stream and Stats (the
// carve's wall time is the seed phase, the carved cells count as applied
// moves) — and runs no improvement pass and no absorption. The flow and
// multilevel baselines are carves.
func Peel(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, carve Carve, sink obs.Sink, label string) (*Result, error) {
	pl, err := startPeel(ctx, h, dev, sink, label)
	if err != nil {
		return nil, err
	}
	err = pl.loop(func() (partition.BlockID, error) {
		set, err := carve(ctx, pl.p, pl.rem, pl.st)
		if err != nil || len(set) == 0 {
			return partition.NoBlock, err
		}
		nb := pl.p.AddBlock()
		for _, v := range set {
			pl.p.Move(v, nb)
		}
		pl.st.MovesApplied += len(set)
		return nb, nil
	}, nil)
	if err != nil {
		return pl.cancelled(err)
	}
	return pl.finish(), nil
}

// peel is one recursive-peeling trajectory: the partition being carved out
// of its remainder block, and the result and event stream describing it.
type peel struct {
	ctx   context.Context
	start time.Time
	p     *partition.Partition
	rem   partition.BlockID
	m     int
	res   *Result
	st    *Stats // &res.Stats
	em    *obs.Emitter
}

// startPeel checks the input, puts every node in the remainder and opens
// the event stream. A run cancelled before it starts still emits RunStart
// (with M unknown) and Cancelled, so every run's stream holds one RunStart
// and one terminal event.
func startPeel(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, sink obs.Sink, label string) (*peel, error) {
	start := time.Now()
	em := obs.NewEmitter(sink, label)
	if err := CheckInput(ctx, h, dev); err != nil {
		if ctx.Err() != nil {
			em.Emit(obs.Event{Type: obs.RunStart})
			em.Emit(obs.Event{Type: obs.Cancelled})
		}
		return nil, err
	}
	p := partition.New(h, dev)
	m := device.LowerBound(h, dev)
	res := &Result{Partition: p, M: m}
	res.Stats.PeakBlocks = p.NumBlocks()
	em.Emit(obs.Event{Type: obs.RunStart, M: m})
	return &peel{ctx: ctx, start: start, p: p, rem: 0, m: m, res: res, st: &res.Stats, em: em}, nil
}

// loop peels until the remainder fits the device, device.BlockCap(M)
// blocks exist, carve finds no block (returns NoBlock), or the remainder
// empties. carve creates the new block; improve, when non-nil, runs after
// each one. An error is ctx's: the trajectory is abandoned.
func (pl *peel) loop(carve func() (partition.BlockID, error), improve func(pk partition.BlockID) error) error {
	st := pl.st
	maxBlocks := device.BlockCap(pl.m)
	for !pl.p.Feasible(pl.rem) {
		if err := pl.ctx.Err(); err != nil {
			return err
		}
		if pl.p.NumBlocks() >= maxBlocks {
			break // bail out; Feasible stays false
		}
		st.Iterations++
		pl.em.Emit(obs.Event{Type: obs.BipartitionStart, Iteration: st.Iterations})
		t0 := time.Now()
		pk, err := carve()
		st.PhaseTime[obs.PhaseSeed] += time.Since(t0)
		if err != nil {
			return err
		}
		if pk == partition.NoBlock {
			break
		}
		if pl.p.NumBlocks() > st.PeakBlocks {
			st.PeakBlocks = pl.p.NumBlocks()
		}
		pl.em.Emit(obs.Event{
			Type: obs.BipartitionEnd, Iteration: st.Iterations,
			Block: int(pk), Size: pl.p.Size(pk), Terminals: pl.p.Terminals(pk),
		})
		if improve != nil {
			if err := improve(pk); err != nil {
				return err
			}
		}
		if pl.p.Nodes(pl.rem) == 0 {
			break
		}
	}
	return nil
}

// cancelled closes the stream of an abandoned trajectory.
func (pl *peel) cancelled(err error) (*Result, error) {
	pl.em.Emit(obs.Event{Type: obs.Cancelled})
	return nil, err
}

// finish classifies the final partition and closes the stream.
func (pl *peel) finish() *Result {
	res := pl.res
	res.Feasible = pl.p.Classify() == partition.FeasibleSolution
	res.K = nonEmptyBlocks(pl.p)
	res.Elapsed = time.Since(pl.start)
	pl.em.Emit(obs.Event{Type: obs.RunEnd, K: res.K, M: pl.m, Feasible: res.Feasible})
	return res
}
