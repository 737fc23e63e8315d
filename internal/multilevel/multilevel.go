// Package multilevel implements a multilevel (hMETIS-style) partitioning
// baseline: heavy-edge-matching coarsening, a constructive split of the
// coarsest graph, and FM refinement on the way back up, embedded in the
// same recursive peeling driver the other methods use.
//
// Multilevel methods postdate the FPART paper's comparisons (hMETIS
// appeared contemporaneously) but dominate modern practice; having one in
// the repository shows where the paper's guided flat FM stands against the
// coarsening paradigm on the same benchmark suite.
package multilevel

import (
	"context"
	"sort"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
	"fpart/internal/seed"
)

// The per-peel V-cycle stops coarsening once the remainder's graph has at
// most coarsestNodes nodes, and caps a coarse node's size at
// maxClusterFrac of S_MAX so refinement keeps enough granularity.
const (
	coarsestNodes  = 64
	maxClusterFrac = 0.25
)

// Config tunes the multilevel driver.
type Config struct {
	// Sink, when non-nil, receives the run's events: RunStart, one
	// BipartitionStart/BipartitionEnd pair per peeled block, RunEnd.
	Sink obs.Sink
	// Label tags this run's events (obs.Event.Source).
	Label string
}

// level is one rung of the coarsening hierarchy.
type level struct {
	h *hypergraph.Hypergraph
	// fineToCoarse maps the previous (finer) level's node IDs into this
	// level's node IDs. Nil for the finest level.
	fineToCoarse []hypergraph.NodeID
}

// coarsen builds one coarser level without a cancellation context; it is
// coarsenCtx (hierarchy.go) under context.Background, kept for callers like
// ClusterOrder that have no deadline to honour.
func coarsen(h *hypergraph.Hypergraph, maxClusterSize int) (*level, bool) {
	lv, ok, _ := coarsenCtx(context.Background(), h, maxClusterSize)
	return lv, ok
}

// vCycleSplit selects a node set of the remainder whose projection targets
// a device-sized, min-cut block: coarsen, split the coarsest level, then
// uncoarsen with FM refinement at every level. Returns the chosen fine-level
// node set and the number of levels used. Cancelling ctx aborts between
// coarsening levels and mid-refinement, returning ctx's error.
func vCycleSplit(ctx context.Context, p *partition.Partition, rem partition.BlockID, dev device.Device, st *obs.Stats) ([]hypergraph.NodeID, int, bool, error) {
	remNodes := p.NodesIn(rem)
	if len(remNodes) < 2 {
		return nil, 0, false, nil
	}
	base, back := p.Hypergraph().Induced(remNodes)
	levels := []*level{{h: base}}
	maxCluster := int(maxClusterFrac * float64(dev.SMax()))
	if maxCluster < 2 {
		maxCluster = 2
	}
	for levels[len(levels)-1].h.NumNodes() > coarsestNodes {
		if err := ctx.Err(); err != nil {
			return nil, len(levels), false, err
		}
		// coarsenCtx polls ctx inside its matching loop too, so one huge
		// level cannot blow past a deadline before the between-level check
		// above runs again.
		lv, ok, err := coarsenCtx(ctx, levels[len(levels)-1].h, maxCluster)
		if err != nil {
			return nil, len(levels), false, err
		}
		if !ok {
			break
		}
		levels = append(levels, lv)
	}

	// Every level above the input is matched; merge their parallel nets
	// for the split and the refinement.
	for _, lv := range levels[1:] {
		lv.h = lv.h.MergeParallelNets()
	}

	// Split the coarsest level: grow a block toward S_MAX by connectivity.
	coarsest := levels[len(levels)-1].h
	inA := growSplit(coarsest, dev.SMax())

	// Refine upward. At each level, build a scratch 2-block partition and
	// run the FM engine with a cut objective and size window around S_MAX.
	for li := len(levels) - 1; li >= 0; li-- {
		lh := levels[li].h
		scratch := partition.New(lh, dev)
		blkA := scratch.AddBlock()
		for v := 0; v < lh.NumNodes(); v++ {
			if inA[hypergraph.NodeID(v)] {
				scratch.Move(hypergraph.NodeID(v), blkA)
			}
		}
		eng := sanchis.New(scratch, sanchis.Config{
			CutObjective: true,
			StackDepth:   -1,
			MaxPasses:    4,
		})
		est, err := eng.ImproveCtx(ctx, []partition.BlockID{0, blkA}, 0, device.LowerBound(lh, dev))
		st.ImproveCalls++
		est.FoldInto(st)
		if err != nil {
			return nil, len(levels), false, err
		}
		// Re-read side A and project one level down.
		if li > 0 {
			finer := levels[li-1].h
			f2c := levels[li].fineToCoarse
			next := make(map[hypergraph.NodeID]bool, finer.NumNodes())
			for v := 0; v < finer.NumNodes(); v++ {
				if scratch.Block(f2c[v]) == blkA {
					next[hypergraph.NodeID(v)] = true
				}
			}
			inA = next
		} else {
			next := make(map[hypergraph.NodeID]bool)
			for v := 0; v < lh.NumNodes(); v++ {
				if scratch.Block(hypergraph.NodeID(v)) == blkA {
					next[hypergraph.NodeID(v)] = true
				}
			}
			inA = next
		}
	}

	// Map the finest-level side A back to global node IDs, then trim to
	// device feasibility (the V-cycle minimizes cut at target size but
	// does not check pins).
	var set []hypergraph.NodeID
	for v, in := range inA {
		if in {
			set = append(set, back[v])
		}
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	if len(set) == 0 || len(set) == len(remNodes) {
		return nil, len(levels), false, nil
	}
	return set, len(levels), true, nil
}

// growSplit grows a connectivity-first cluster on the coarse graph until
// the next addition would exceed S_MAX.
func growSplit(h *hypergraph.Hypergraph, smax int) map[hypergraph.NodeID]bool {
	inA := make(map[hypergraph.NodeID]bool)
	seedNode := h.BiggestInterior(h.NodeIDs())
	if seedNode < 0 {
		return inA
	}
	inA[seedNode] = true
	size := h.SizeOf(seedNode)
	gainTo := map[hypergraph.NodeID]int{}
	expand := func(v hypergraph.NodeID) {
		for _, e := range h.NodeNets(v) {
			w := h.NetWeight(e)
			for _, u := range h.NetPins(e) {
				if !inA[u] {
					gainTo[u] += w
				}
			}
		}
	}
	expand(seedNode)
	for {
		var best hypergraph.NodeID = -1
		bestG := -1
		for u, g := range gainTo {
			if inA[u] {
				continue
			}
			if size+h.SizeOf(u) > smax {
				continue
			}
			if g > bestG || (g == bestG && u < best) {
				best, bestG = u, g
			}
		}
		if best < 0 {
			return inA
		}
		inA[best] = true
		size += h.SizeOf(best)
		delete(gainTo, best)
		expand(best)
	}
}

// ClusterOrder returns a linear arrangement of h's nodes in which nodes
// merged at deeper coarsening levels stay adjacent: the hierarchy is built
// by repeated heavy-edge matching and the order is its depth-first
// expansion. Orderings like this keep natural circuit clusters contiguous,
// which is what window/DP partitioners (internal/wcdp) need.
func ClusterOrder(h *hypergraph.Hypergraph) []hypergraph.NodeID {
	levels := []*level{{h: h}}
	for levels[len(levels)-1].h.NumNodes() > 8 {
		lv, ok := coarsen(levels[len(levels)-1].h, 1<<30)
		if !ok {
			break
		}
		levels = append(levels, lv)
	}
	// Start from the coarsest level in node-ID order and expand downward:
	// at each level, fine nodes are grouped behind their coarse image.
	top := levels[len(levels)-1].h
	order := make([]hypergraph.NodeID, top.NumNodes())
	for i := range order {
		order[i] = hypergraph.NodeID(i)
	}
	for li := len(levels) - 1; li >= 1; li-- {
		f2c := levels[li].fineToCoarse
		fineN := levels[li-1].h.NumNodes()
		buckets := make([][]hypergraph.NodeID, levels[li].h.NumNodes())
		for v := 0; v < fineN; v++ {
			c := f2c[v]
			buckets[c] = append(buckets[c], hypergraph.NodeID(v))
		}
		fineOrder := make([]hypergraph.NodeID, 0, fineN)
		for _, c := range order {
			fineOrder = append(fineOrder, buckets[c]...)
		}
		order = fineOrder
	}
	// Pads never merge during coarsening, so the hierarchy leaves them
	// scattered; splice each pad right behind its anchor (its first
	// interior neighbour) so pad-heavy circuits stay contiguous.
	padsOf := make(map[hypergraph.NodeID][]hypergraph.NodeID)
	var orphans []hypergraph.NodeID
	for _, p := range h.PadIDs() {
		var anchor hypergraph.NodeID = -1
		for _, e := range h.NodeNets(p) {
			for _, u := range h.NetPins(e) {
				if h.KindOf(u) == hypergraph.Interior {
					anchor = u
					break
				}
			}
			if anchor >= 0 {
				break
			}
		}
		if anchor >= 0 {
			padsOf[anchor] = append(padsOf[anchor], p)
		} else {
			orphans = append(orphans, p)
		}
	}
	final := make([]hypergraph.NodeID, 0, h.NumNodes())
	for _, v := range order {
		if h.KindOf(v) == hypergraph.Pad {
			continue // re-emitted next to its anchor
		}
		final = append(final, v)
		final = append(final, padsOf[v]...)
	}
	return append(final, orphans...)
}

// Partition runs the multilevel peeling driver. It is PartitionCtx with a
// background context.
func Partition(h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*core.Result, error) {
	return PartitionCtx(context.Background(), h, dev, cfg)
}

// PartitionCtx runs the multilevel peeling driver under ctx: the V-cycle
// carve inside core.Peel. Cancellation is polled at every peel iteration,
// between coarsening levels, and inside each level's FM refinement, so
// even one V-cycle on a large circuit aborts promptly; the partial
// solution is discarded and ctx's error is returned. The V-cycle (coarsen
// + refine) is accounted as the seed phase, and its per-level FM
// refinement counters fold into the move/pass totals of Result.Stats.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*core.Result, error) {
	return core.Peel(ctx, h, dev, carve, cfg.Sink, cfg.Label)
}

// carve is the multilevel peel step: the V-cycle's min-cut side saturated
// under every device constraint, exactly as the flow baseline does with
// its nucleus, or a pin-aware greedy block from the biggest node when the
// V-cycle finds no split.
func carve(ctx context.Context, p *partition.Partition, rem partition.BlockID, st *core.Stats) ([]hypergraph.NodeID, error) {
	dev := p.Device()
	set, _, ok, err := vCycleSplit(ctx, p, rem, dev, st)
	if err != nil {
		return nil, err
	}
	if ok {
		set = trimToFeasible(p, rem, dev, set)
	}
	if !ok || len(set) == 0 {
		var init []hypergraph.NodeID
		if s := p.Hypergraph().BiggestInterior(p.NodesIn(rem)); s >= 0 {
			init = []hypergraph.NodeID{s}
		}
		set = seed.Grow(p, rem, dev, init)
	}
	return set, nil
}

// trimToFeasible shrinks/saturates a candidate set so the carved block
// meets every device constraint: it regrows from the candidate's highest
// connectivity core using the pin-aware greedy growth.
func trimToFeasible(p *partition.Partition, rem partition.BlockID, dev device.Device, set []hypergraph.NodeID) []hypergraph.NodeID {
	// Check the set as-is first: size and every resource axis summed
	// over the whole set.
	h := p.Hypergraph()
	size := 0
	res := make([]int, p.NumRes())
	for _, v := range set {
		size += h.SizeOf(v)
		for r := range res {
			res[r] += p.ResDemandOf(v, r)
		}
	}
	if size <= dev.SMax() && dev.FitsRes(res) {
		if term := probeTerminals(p, rem, set); term <= dev.TMax() {
			return seed.Grow(p, rem, dev, set)
		}
	}
	// Infeasible as a whole: regrow from its densest member.
	if len(set) == 0 {
		return nil
	}
	return seed.Grow(p, rem, dev, set[:1])
}

// probeTerminals evaluates the terminal count the set would have as a block.
func probeTerminals(p *partition.Partition, rem partition.BlockID, set []hypergraph.NodeID) int {
	h := p.Hypergraph()
	in := make(map[hypergraph.NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	term := 0
	seen := map[hypergraph.NetID]bool{}
	for _, v := range set {
		if h.KindOf(v) == hypergraph.Pad {
			term++
		}
		for _, e := range h.NodeNets(v) {
			if seen[e] {
				continue
			}
			seen[e] = true
			outside := p.Span(e) > 1
			if !outside {
				for _, u := range h.NetPins(e) {
					if !in[u] {
						outside = true
						break
					}
				}
			}
			if outside {
				term++
			}
		}
	}
	return term
}
