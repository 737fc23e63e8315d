package engine

import (
	"context"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/flow"
	"fpart/internal/hypergraph"
	"fpart/internal/multilevel"
)

// kwayxEngine runs core.Run under core.KWayX, the k-way.x recursive
// bipartitioning baseline of §3 / Tables 2–5.
type kwayxEngine struct{}

func init() { Register(2, kwayxEngine{}) }

func (kwayxEngine) Name() string { return "kwayx" }

func (kwayxEngine) Caps() Capabilities {
	return Capabilities{
		Summary: "k-way.x recursive bipartitioning baseline (Kuznar-Brglez-Kozminski)",
	}
}

func (kwayxEngine) Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	cfg := core.KWayX()
	cfg.Sink = opts.Sink
	cfg.Label = opts.Label
	return fromCore(core.Run(ctx, h, dev, cfg))
}

// flowEngine wraps flow.PartitionCtx, the FBB-MW flow-based baseline.
type flowEngine struct{}

func init() { Register(3, flowEngine{}) }

func (flowEngine) Name() string { return "flow" }

func (flowEngine) Caps() Capabilities {
	return Capabilities{
		Summary: "FBB-MW flow-based peeling baseline (Liu-Wong max-flow min-cut)",
	}
}

func (flowEngine) Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	return fromCore(flow.PartitionCtx(ctx, h, dev, flow.Config{Sink: opts.Sink, Label: opts.Label}))
}

// multilevelEngine wraps multilevel.PartitionCtx, the hMETIS-style
// coarsen/split/refine baseline.
type multilevelEngine struct{}

func init() { Register(4, multilevelEngine{}) }

func (multilevelEngine) Name() string { return "multilevel" }

func (multilevelEngine) Caps() Capabilities {
	return Capabilities{
		Summary: "multilevel coarsen/split/refine baseline (hMETIS-style V-cycles)",
	}
}

func (multilevelEngine) Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	return fromCore(multilevel.PartitionCtx(ctx, h, dev, multilevel.Config{Sink: opts.Sink, Label: opts.Label}))
}
