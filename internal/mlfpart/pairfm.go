package mlfpart

import (
	"context"
	"slices"

	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
)

// pairFMConfig is the Sanchis configuration of pairFM.
var pairFMConfig = sanchis.Config{
	CutObjective: true,
	StackDepth:   -1,
	MaxPasses:    2,
	Windows:      sanchis.Windows{Upper: 1.05, Lower2: 1e-9, LowerMulti: 1e-9},
}

// pairFM runs boundary-restricted Sanchis FM between the most
// cut-connected block pairs of one level. The engine runs in cut-objective
// mode — the solution key is (feasible blocks, cut), so a pass can never
// trade feasibility for cut — with strict S_MAX ceilings (m = 0 disables
// the overfill window) and no lower window, and each call is restricted to
// the pair's boundary cells. The boundaries of all pairs come from one
// sweep over the level's cut nets (pairBoundaries), so the set-up costs
// O(nets + cut pins) per level, not O(pairs·nets); each FM call then costs
// in proportion to its pair's boundary. One pooled engine is Reset per
// level.
func (r *refiner) pairFM(ctx context.Context, p *partition.Partition, stats *obs.Stats) error {
	pairs := r.topPairs(p)
	if len(pairs) == 0 {
		return nil
	}
	if r.eng == nil {
		r.eng = sanchis.New(p, pairFMConfig)
	} else {
		r.eng.Reset(p, pairFMConfig)
	}
	// FM on one pair moves cells only between the pair's two blocks, and
	// the pairs are a matching, so no pair's FM changes another pair's
	// boundary: every boundary can be collected before the first pair runs.
	bounds := r.pairBoundaries(p, pairs)
	for i, pr := range pairs {
		if err := ctx.Err(); err != nil {
			return err
		}
		cells := bounds[i]
		if len(cells) < 2 {
			continue
		}
		st, err := r.eng.ImproveSubsetCtx(ctx, []partition.BlockID{pr.a, pr.b}, partition.NoBlock, 0, cells)
		if err != nil {
			return err
		}
		st.FoldInto(stats)
	}
	return nil
}

// pairBoundaries returns, for each pair of the block matching pairs, the
// interior cells of its two blocks incident to a net with pins in both,
// sorted by ID (the subset contract of sanchis.ImproveSubsetCtx). One sweep
// over the nets spanning two or more blocks serves every pair: a cell's
// block sits in at most one pair, so each cell joins at most one list.
func (r *refiner) pairBoundaries(p *partition.Partition, pairs []blockPair) [][]hypergraph.NodeID {
	h := p.Hypergraph()
	if cap(r.seen) < h.NumNodes() {
		r.seen = make([]bool, h.NumNodes())
	}
	seen := r.seen[:h.NumNodes()]
	pairOf := make([]int32, p.NumBlocks())
	for b := range pairOf {
		pairOf[b] = -1
	}
	for i, pr := range pairs {
		pairOf[pr.a], pairOf[pr.b] = int32(i), int32(i)
	}
	bounds := make([][]hypergraph.NodeID, len(pairs))
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if p.Span(ne) < 2 {
			continue
		}
		for _, v := range h.NetPins(ne) {
			if seen[v] || h.KindOf(v) != hypergraph.Interior {
				continue
			}
			b := p.Block(v)
			q := pairOf[b]
			if q < 0 {
				continue
			}
			partner := pairs[q].a
			if partner == b {
				partner = pairs[q].b
			}
			if p.PinCount(ne, partner) == 0 {
				continue
			}
			seen[v] = true
			bounds[q] = append(bounds[q], v)
		}
	}
	for _, cells := range bounds {
		for _, v := range cells {
			seen[v] = false
		}
		slices.Sort(cells)
	}
	return bounds
}
