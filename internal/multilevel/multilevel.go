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
	"fmt"

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

// vCycleSplit selects a node set of the remainder whose projection targets
// a device-sized, min-cut block: coarsen the remainder with BuildHierarchy,
// split the coarsest level, then project down with FM refinement at every
// level. Returns the chosen fine-level node set and the number of levels
// used. Cancelling ctx aborts between and inside coarsening levels and
// mid-refinement, returning ctx's error.
func vCycleSplit(ctx context.Context, p *partition.Partition, rem partition.BlockID, dev device.Device, st *obs.Stats) ([]hypergraph.NodeID, int, bool, error) {
	remNodes := p.NodesIn(rem)
	if len(remNodes) < 2 {
		return nil, 0, false, nil
	}
	base, back := p.Hypergraph().Induced(remNodes)
	hr, err := BuildHierarchy(ctx, base, HierarchyConfig{
		CoarsestNodes:  coarsestNodes,
		MaxClusterSize: max(int(maxClusterFrac*float64(dev.SMax())), 2),
	})
	if err != nil {
		return nil, 1, false, err
	}
	levels := hr.Depth() + 1

	// Split the coarsest level (side 1 is the block), then refine every
	// level in one arena partition: a 2-block FM with a cut objective and
	// a size window around S_MAX, projected one level down in between.
	side := growSplit(hr.Coarsest(), dev.SMax())
	var arena partition.Partition
	var fine []partition.BlockID
	for li := hr.Depth(); ; li-- {
		lh := hr.Graph(li)
		if err := arena.Load(lh, dev, side, 2); err != nil {
			return nil, levels, false, fmt.Errorf("multilevel: load level %d: %w", li, err)
		}
		eng := sanchis.New(&arena, sanchis.Config{
			CutObjective: true,
			StackDepth:   -1,
			MaxPasses:    4,
		})
		est, err := eng.ImproveCtx(ctx, []partition.BlockID{0, 1}, 0, device.LowerBound(lh, dev))
		st.ImproveCalls++
		est.FoldInto(st)
		if err != nil {
			return nil, levels, false, err
		}
		side = arena.Assignment(side)
		if li == 0 {
			break
		}
		fine = hr.Project(li, side, fine)
		side, fine = fine, side
	}

	// Map the finest-level side back to global node IDs (Induced keeps
	// their order); the caller makes the block device-feasible.
	var set []hypergraph.NodeID
	for v, b := range side {
		if b == 1 {
			set = append(set, back[v])
		}
	}
	if len(set) == 0 || len(set) == len(remNodes) {
		return nil, levels, false, nil
	}
	return set, levels, true, nil
}

// growSplit grows a connectivity-first cluster (side 1) on the coarse
// graph: from the biggest interior node, it adds the candidate with the
// most net weight into the cluster, lowest ID on ties, that keeps the
// cluster within S_MAX.
func growSplit(h *hypergraph.Hypergraph, smax int) []partition.BlockID {
	side := make([]partition.BlockID, h.NumNodes())
	seedNode := h.BiggestInterior(h.NodeIDs())
	if seedNode < 0 {
		return side
	}
	gain := make([]int, h.NumNodes())
	var cands []hypergraph.NodeID // every node with a gain, in first-touch order
	size := 0
	add := func(v hypergraph.NodeID) {
		side[v] = 1
		size += h.SizeOf(v)
		for _, e := range h.NodeNets(v) {
			w := h.NetWeight(e)
			for _, u := range h.NetPins(e) {
				if side[u] == 0 {
					if gain[u] == 0 {
						cands = append(cands, u)
					}
					gain[u] += w
				}
			}
		}
	}
	add(seedNode)
	for {
		var best hypergraph.NodeID = -1
		bestG := -1
		keep := cands[:0]
		for _, u := range cands {
			if side[u] == 1 {
				continue // compact out: members never leave
			}
			keep = append(keep, u)
			if size+h.SizeOf(u) > smax {
				continue
			}
			if g := gain[u]; g > bestG || (g == bestG && u < best) {
				best, bestG = u, g
			}
		}
		cands = keep
		if best < 0 {
			return side
		}
		add(best)
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
		lv, ok, _ := coarsenCtx(context.Background(), levels[len(levels)-1].h, 1<<30)
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
// under every device constraint by seed.Saturate, as the flow baseline
// does with its nucleus, or seed.GrowBiggest when the V-cycle finds no
// split.
func carve(ctx context.Context, p *partition.Partition, rem partition.BlockID, st *core.Stats) ([]hypergraph.NodeID, error) {
	dev := p.Device()
	set, _, ok, err := vCycleSplit(ctx, p, rem, dev, st)
	if err != nil {
		return nil, err
	}
	if ok {
		return seed.Saturate(p, rem, dev, set), nil
	}
	return seed.GrowBiggest(p, rem, dev), nil
}
