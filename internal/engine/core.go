package engine

import (
	"context"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// fpartEngine wraps core.Run: the paper's guided iterative improvement.
type fpartEngine struct{}

func init() { Register(0, fpartEngine{}) }

func (fpartEngine) Name() string { return "fpart" }

func (fpartEngine) Caps() Capabilities {
	return Capabilities{
		Summary: "guided iterative improvement of Krupnova & Saucier (the paper's algorithm)",
	}
}

func (fpartEngine) Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	cfg := core.Default()
	cfg.Sink = opts.Sink
	cfg.Label = opts.Label
	return fromCore(core.Run(ctx, h, dev, cfg))
}

// portfolioEngine wraps core.Portfolio over the DefaultPortfolio
// configuration mix (engine-variant racing of one method).
type portfolioEngine struct{}

func init() { Register(1, portfolioEngine{}) }

func (portfolioEngine) Name() string { return "portfolio" }

func (portfolioEngine) Caps() Capabilities {
	return Capabilities{
		Budgeted: true,
		Summary:  "races the core.DefaultPortfolio configuration mix, a K=M win cancels the later members",
	}
}

func (portfolioEngine) Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	cfgs := core.DefaultPortfolio()
	for i := range cfgs {
		cfgs[i].Sink = opts.Sink
		cfgs[i].Budget = opts.Budget
	}
	return fromCore(core.Portfolio(ctx, h, dev, cfgs))
}

// fromCore converts the outcome of a core-driven engine to a Result.
func fromCore(r *core.Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Partition: r.Partition, K: r.K, M: r.M, Feasible: r.Feasible, Stats: &r.Stats, Elapsed: r.Elapsed}, nil
}
