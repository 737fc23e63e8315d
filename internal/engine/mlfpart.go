package engine

import (
	"context"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/mlfpart"
)

// mlfpartEngine wraps mlfpart.PartitionCtx, the multilevel-accelerated
// FPART V-cycle for 10⁵–10⁶-cell netlists.
type mlfpartEngine struct{}

func init() { Register(5, mlfpartEngine{}) }

func (mlfpartEngine) Name() string { return "mlfpart" }

func (mlfpartEngine) Caps() Capabilities {
	return Capabilities{
		Summary: "multilevel-accelerated FPART (coarsen, peel coarsest, refine down)",
	}
}

func (mlfpartEngine) Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	r, err := mlfpart.PartitionCtx(ctx, h, dev, mlfpart.Config{Sink: opts.Sink, Label: opts.Label})
	if err != nil {
		return nil, err
	}
	return fromCore(&r.Result, nil)
}
