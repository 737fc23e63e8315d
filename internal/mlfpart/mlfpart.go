// Package mlfpart is the multilevel-accelerated FPART engine: it coarsens
// the input hypergraph through a hierarchy of heavy-edge contractions,
// runs the paper's feasibility-window peeling (core.Run) on the coarsest
// graph, and then uncoarsens level by level, projecting the block
// assignment onto each finer graph and refining it with boundary-restricted
// passes. Contraction only ever drops nets internal to one cluster and
// surviving nets keep their span, so projection is exact — block sizes,
// terminal counts, and the cut value carry over unchanged — and every
// refinement move is feasibility-gated, so a feasible coarse solution stays
// feasible all the way down.
//
// Below Config.FlatThreshold the engine delegates to core.Run verbatim and
// is bit-identical to the flat fpart method; above it, the V-cycle turns
// the O(large-n) peeling into an O(coarse-n) problem plus linear-time
// refinement sweeps, which is what makes 10⁵–10⁶-cell netlists tractable.
//
// Determinism: coarsening, the coarse peel, pair selection, and every
// refinement pass are deterministic and serial, so results are
// bit-identical for a fixed input at any GOMAXPROCS.
package mlfpart

import (
	"context"
	"fmt"
	"time"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/multilevel"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// maxClusterFrac caps a coarse node's size as a fraction of the device
// S_MAX so coarse nodes stay placeable.
const maxClusterFrac = 0.25

// Config tunes the multilevel engine. The zero value selects defaults.
type Config struct {
	// FlatThreshold: inputs with at most this many nodes bypass the
	// V-cycle and run flat core.Run directly (bit-identical to the fpart
	// method). Zero selects 8192; negative forces the V-cycle on any
	// input (tests use this).
	FlatThreshold int
	// CoarsestNodes stops coarsening at this node count. Zero selects
	// max(1024, 16·M, n/128): room for M blocks, and coarse granularity
	// that grows with the input. The n/128 term matters at the top of
	// the scale — coarsening concentrates connectivity (pads never
	// merge, hub clusters accumulate nets), so an over-coarsened graph
	// can be terminal-infeasible for the peel even when the fine graph
	// is fine; stopping earlier is both more feasible and cheaper,
	// because refinement then starts from a better solution (measured
	// at 10⁶ cells on a 20000x5000 part: coarsest 8000 gives 69 devices
	// in 56s where coarsest 1024 gives 112 in 2m4s).
	CoarsestNodes int

	// Sink receives structured events: CoarsenLevel/RefineLevel per
	// hierarchy level plus the coarse peel's own stream under
	// Label+"#coarse".
	Sink obs.Sink
	// Label tags this run's events (default "mlfpart").
	Label string
}

func (c Config) normalize() Config {
	if c.FlatThreshold == 0 {
		c.FlatThreshold = 8192
	}
	if c.FlatThreshold < 0 {
		c.FlatThreshold = 0
	}
	if c.Label == "" {
		c.Label = "mlfpart"
	}
	return c
}

// Result is the outcome of a PartitionCtx call: core's outcome fields for
// the partition of the input graph, plus the hierarchy depth.
type Result struct {
	core.Result
	// Levels is the hierarchy depth used (0 when the flat path ran).
	Levels int
	// CoarseNets and CoarsePins count the nets and pins of the graph the
	// coarse peel ran on, after its parallel nets were merged (0 when the
	// flat path ran).
	CoarseNets, CoarsePins int
}

// Partition runs the multilevel engine with a background context.
func Partition(h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	return PartitionCtx(context.Background(), h, dev, cfg)
}

// hierarchyConfig is the coarsening the V-cycle runs on h: it stops at
// cfg.CoarsestNodes (default max(1024, 16·M, n/128)) and caps a coarse
// node at maxClusterFrac of S_MAX.
func hierarchyConfig(h *hypergraph.Hypergraph, dev device.Device, cfg Config) multilevel.HierarchyConfig {
	coarsest := cfg.CoarsestNodes
	if coarsest <= 0 {
		coarsest = max(1024, 16*device.LowerBound(h, dev), h.NumNodes()/128)
	}
	return multilevel.HierarchyConfig{
		CoarsestNodes:  coarsest,
		MaxClusterSize: max(int(maxClusterFrac*float64(dev.SMax())), 1),
	}
}

// PartitionCtx partitions circuit h targeting device dev through the
// coarsen → peel → uncoarsen+refine V-cycle described in the package
// comment. Cancellation is polled in the coarsening loop, inside the
// coarse peel, and per refinement batch.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	start := time.Now()
	if err := core.CheckInput(ctx, h, dev); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	m := device.LowerBound(h, dev)

	if h.NumNodes() <= cfg.FlatThreshold {
		r, err := core.Run(ctx, h, dev, core.Config{Sink: cfg.Sink, Label: cfg.Label})
		if err != nil {
			return nil, err
		}
		r.Elapsed = time.Since(start)
		return &Result{Result: *r}, nil
	}

	em := obs.NewEmitter(cfg.Sink, cfg.Label)
	res := &Result{Result: core.Result{M: m}}
	em.Emit(obs.Event{Type: obs.RunStart, M: m})

	// Coarsen. The per-level size cap (maxClusterFrac of S_MAX) keeps
	// every coarse node well under S_MAX so the coarsest peel can always
	// place them.
	t0 := time.Now()
	hr, err := multilevel.BuildHierarchy(ctx, h, hierarchyConfig(h, dev, cfg))
	if err != nil {
		em.Emit(obs.Event{Type: obs.Cancelled})
		return nil, err
	}
	res.Stats.PhaseTime[obs.PhaseCoarsen] += time.Since(t0)
	res.Levels = hr.Depth()
	res.CoarseNets, res.CoarsePins = hr.Coarsest().NumNets(), hr.Coarsest().NumPins()
	for i := 1; i <= hr.Depth(); i++ {
		em.Emit(obs.Event{Type: obs.CoarsenLevel, Iteration: i, Size: hr.Graph(i).NumNodes()})
	}

	// Initial partition: the paper's peel on the coarsest graph, with its
	// own event stream so traces show both layers.
	cr, err := core.Run(ctx, hr.Coarsest(), dev, core.Config{Sink: cfg.Sink, Label: cfg.Label + "#coarse"})
	if err != nil {
		em.Emit(obs.Event{Type: obs.Cancelled})
		return nil, err
	}
	res.Stats.Merge(cr.Stats)

	// Uncoarsen: project the assignment one level down, load it into the
	// arena partition on the finer graph (exact by the projection
	// invariant), and refine its boundary. The arena and both assignment
	// buffers are sized once for the finest graph — loading its all-zero
	// assignment presizes every slab — so no level allocates.
	p := cr.Partition
	k := p.NumBlocks()
	t0 = time.Now()
	var assign, fine []partition.BlockID
	if hr.Depth() > 0 {
		finest := hr.Graph(0)
		fine = make([]partition.BlockID, finest.NumNodes())
		assign = p.Assignment(make([]partition.BlockID, 0, finest.NumNodes()))
		p = &partition.Partition{}
		if err := p.Load(finest, dev, fine, k); err != nil {
			return nil, fmt.Errorf("mlfpart: size arena: %w", err)
		}
	}
	ref := new(refiner)
	for li := hr.Depth(); li >= 1; li-- {
		if err := ctx.Err(); err != nil {
			em.Emit(obs.Event{Type: obs.Cancelled})
			return nil, err
		}
		fine = hr.Project(li, assign, fine)
		fh := hr.Graph(li - 1)
		if err := p.Load(fh, dev, fine, k); err != nil {
			return nil, fmt.Errorf("mlfpart: project to level %d: %w", li-1, err)
		}
		before := p.Cut()
		moves, err := ref.refine(ctx, p, &res.Stats)
		if err != nil {
			res.Stats.PhaseTime[obs.PhaseRefine] += time.Since(t0)
			em.Emit(obs.Event{Type: obs.Cancelled})
			return nil, err
		}
		em.Emit(obs.Event{
			Type: obs.RefineLevel, Iteration: li - 1, Size: fh.NumNodes(),
			Moves: moves, Improved: p.Cut() < before,
		})
		// Swap buffers: the refined assignment becomes the next level's
		// coarse side.
		assign, fine = p.Assignment(fine), assign
	}
	res.Stats.PhaseTime[obs.PhaseRefine] += time.Since(t0)

	res.Partition = p
	res.Feasible = p.Classify() == partition.FeasibleSolution
	for b := 0; b < p.NumBlocks(); b++ {
		if p.Nodes(partition.BlockID(b)) > 0 {
			res.K++
		}
	}
	if res.Stats.PeakBlocks < p.NumBlocks() {
		res.Stats.PeakBlocks = p.NumBlocks()
	}
	res.Elapsed = time.Since(start)
	em.Emit(obs.Event{Type: obs.RunEnd, K: res.K, M: m, Feasible: res.Feasible})
	return res, nil
}
