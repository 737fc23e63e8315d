package flow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/seed"
)

// Result is the outcome of the multi-way flow-based partitioning.
type Result struct {
	Partition  *partition.Partition
	K          int
	M          int
	Feasible   bool
	Iterations int
	// Stats carries the effort counters of the run (iterations, per-phase
	// wall time; the flow carve is accounted as the seed phase).
	Stats   obs.Stats
	Elapsed time.Duration
}

// Config tunes the FBB-MW-style driver.
type Config struct {
	// MinFill is the fraction of S_MAX below which candidate source sides
	// are not pin-evaluated (speed knob). Zero selects 0.55.
	MinFill float64
	// MaxBlocks caps iterations; zero selects 4·M+32.
	MaxBlocks int
	// Sink, when non-nil, receives one obs.Event per peeled block.
	Sink obs.Sink
	// Label tags this run's events (obs.Event.Source).
	Label string
}

// Partition runs the flow-based multi-way partitioning: FBB peels one
// device-feasible block per iteration until the remainder fits, mirroring
// the FBB-MW recursion of Liu & Wong. It is PartitionCtx with a background
// context.
func Partition(h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	return PartitionCtx(context.Background(), h, dev, cfg)
}

// PartitionCtx runs the flow-based multi-way partitioning under ctx.
// Cancellation is polled at every peel iteration and inside the FBB grow
// loop (each min-cut/merge round), so even one slow carve aborts promptly;
// the partial solution is discarded and ctx's error is returned.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if h.NumNodes() == 0 {
		return nil, errors.New("flow: empty circuit")
	}
	for _, id := range h.InteriorIDs() {
		if h.Node(id).Size > dev.SMax() {
			return nil, fmt.Errorf("flow: node %q larger than device (%d > %d)",
				h.Node(id).Name, h.Node(id).Size, dev.SMax())
		}
	}
	if cfg.MinFill == 0 {
		cfg.MinFill = 0.55
	}
	em := obs.NewEmitter(cfg.Sink, cfg.Label)

	p := partition.New(h, dev)
	m := device.LowerBound(h, dev)
	rem := partition.BlockID(0)
	res := &Result{Partition: p, M: m}
	res.Stats.PeakBlocks = p.NumBlocks()
	maxBlocks := cfg.MaxBlocks
	if maxBlocks == 0 {
		maxBlocks = 4*m + 32
	}

	em.Emit(obs.Event{Type: obs.RunStart, M: m})
	for !p.Feasible(rem) {
		if err := ctx.Err(); err != nil {
			em.Emit(obs.Event{Type: obs.Cancelled})
			return nil, err
		}
		if p.NumBlocks() >= maxBlocks {
			break
		}
		res.Iterations++
		res.Stats.Iterations++
		em.Emit(obs.Event{Type: obs.BipartitionStart, Iteration: res.Iterations})
		t0 := time.Now()
		set, ok, err := fbbPeelCtx(ctx, p, rem, dev, cfg.MinFill)
		if err != nil {
			res.Stats.PhaseTime[obs.PhaseSeed] += time.Since(t0)
			em.Emit(obs.Event{Type: obs.Cancelled})
			return nil, err
		}
		if !ok {
			// Flow found no pin-feasible side: fall back to a pin-aware
			// greedy carve from the biggest node so the recursion can
			// continue with a feasible (if small) block.
			set = pinAwareFallback(p, rem, dev)
			if len(set) == 0 {
				set = greedyFallback(p, rem, dev)
			}
		}
		res.Stats.PhaseTime[obs.PhaseSeed] += time.Since(t0)
		if len(set) == 0 {
			break
		}
		nb := p.AddBlock()
		for _, v := range set {
			p.Move(v, nb)
			res.Stats.MovesApplied++
		}
		if p.NumBlocks() > res.Stats.PeakBlocks {
			res.Stats.PeakBlocks = p.NumBlocks()
		}
		em.Emit(obs.Event{
			Type: obs.BipartitionEnd, Iteration: res.Iterations,
			Block: int(nb), Size: p.Size(nb), Terminals: p.Terminals(nb),
		})
		if p.Nodes(rem) == 0 {
			break
		}
	}
	res.Feasible = p.Classify() == partition.FeasibleSolution
	for b := 0; b < p.NumBlocks(); b++ {
		if p.Nodes(partition.BlockID(b)) > 0 {
			res.K++
		}
	}
	res.Elapsed = time.Since(start)
	em.Emit(obs.Event{Type: obs.RunEnd, K: res.K, M: m, Feasible: res.Feasible})
	return res, nil
}

// pinAwareFallback saturates a block from the biggest remainder node under
// both device constraints.
func pinAwareFallback(p *partition.Partition, rem partition.BlockID, dev device.Device) []hypergraph.NodeID {
	h := p.Hypergraph()
	var s hypergraph.NodeID = -1
	for _, v := range p.NodesIn(rem) {
		if h.Node(v).Kind != hypergraph.Interior {
			continue
		}
		if s < 0 || h.Node(v).Size > h.Node(s).Size {
			s = v
		}
	}
	if s < 0 {
		return nil
	}
	set := seed.Grow(p, rem, dev, []hypergraph.NodeID{s})
	if len(set) == p.Nodes(rem) {
		// Absorbing the whole remainder makes no progress; let the caller
		// detect the empty remainder instead.
		return set
	}
	return set
}

// greedyFallback grows a block by connectivity until S_MAX, ignoring pins —
// the last-resort carve when flow cannot find any pin-feasible side.
func greedyFallback(p *partition.Partition, rem partition.BlockID, dev device.Device) []hypergraph.NodeID {
	h := p.Hypergraph()
	remNodes := p.NodesIn(rem)
	if len(remNodes) == 0 {
		return nil
	}
	var seedNode hypergraph.NodeID = -1
	for _, v := range remNodes {
		if h.Node(v).Kind != hypergraph.Interior {
			continue
		}
		if seedNode < 0 || h.Node(v).Size > h.Node(seedNode).Size {
			seedNode = v
		}
	}
	if seedNode < 0 {
		seedNode = remNodes[0]
	}
	in := map[hypergraph.NodeID]bool{seedNode: true}
	set := []hypergraph.NodeID{seedNode}
	size := h.Node(seedNode).Size
	frontier := map[hypergraph.NodeID]int{}
	expand := func(v hypergraph.NodeID) {
		for _, e := range h.NodeNets(v) {
			for _, u := range h.NetPins(e) {
				if !in[u] && p.Block(u) == rem {
					frontier[u]++
				}
			}
		}
	}
	expand(seedNode)
	for size < dev.SMax() {
		var best hypergraph.NodeID = -1
		bestC := -1
		for u, c := range frontier {
			if c > bestC || (c == bestC && u < best) {
				best, bestC = u, c
			}
		}
		if best < 0 {
			break
		}
		if size+h.Node(best).Size > dev.SMax() {
			delete(frontier, best)
			continue
		}
		in[best] = true
		set = append(set, best)
		size += h.Node(best).Size
		delete(frontier, best)
		expand(best)
	}
	return set
}
