package flow

import (
	"context"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/seed"
)

// peelMinFill is the fraction of S_MAX below which the driver's FBB
// carves do not pin-evaluate candidate source sides (a speed knob).
const peelMinFill = 0.55

// Config tunes the FBB-MW-style driver.
type Config struct {
	// Sink, when non-nil, receives the run's events: RunStart, one
	// BipartitionStart/BipartitionEnd pair per peeled block, RunEnd.
	Sink obs.Sink
	// Label tags this run's events (obs.Event.Source).
	Label string
}

// Partition runs the flow-based multi-way partitioning: FBB peels one
// device-feasible block per iteration until the remainder fits, mirroring
// the FBB-MW recursion of Liu & Wong. It is PartitionCtx with a background
// context.
func Partition(h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*core.Result, error) {
	return PartitionCtx(context.Background(), h, dev, cfg)
}

// PartitionCtx runs the flow-based multi-way partitioning under ctx: the
// FBB carve inside core.Peel. Cancellation is polled at every peel
// iteration and inside the FBB grow loop (each min-cut/merge round), so
// even one slow carve aborts promptly; the partial solution is discarded
// and ctx's error is returned.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*core.Result, error) {
	return core.Peel(ctx, h, dev, carve, cfg.Sink, cfg.Label)
}

// carve is the FBB-MW peel step: the best device-feasible FBB source side
// or, when flow finds no pin-feasible side, the pin-aware greedy carve of
// seed.GrowBiggest so the recursion can continue with a feasible (if
// small) block.
func carve(ctx context.Context, p *partition.Partition, rem partition.BlockID, _ *core.Stats) ([]hypergraph.NodeID, error) {
	dev := p.Device()
	set, ok, err := fbbPeelCtx(ctx, p, rem, dev, peelMinFill)
	if err != nil || ok {
		return set, err
	}
	return seed.GrowBiggest(p, rem, dev), nil
}
