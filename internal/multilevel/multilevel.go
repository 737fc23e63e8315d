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
	"errors"
	"fmt"
	"sort"
	"time"

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
	// Sink, when non-nil, receives one obs.Event per peeled block.
	Sink obs.Sink
	// Label tags this run's events (obs.Event.Source).
	Label string
}

// Result mirrors the other drivers' results.
type Result struct {
	Partition  *partition.Partition
	K          int
	M          int
	Feasible   bool
	Iterations int
	Levels     int // coarsening levels used by the last peel
	// Stats carries the effort counters of the run: the V-cycle split
	// (coarsen + refine) is accounted as the seed phase, its per-level FM
	// refinement counters fold into the move/pass totals.
	Stats   obs.Stats
	Elapsed time.Duration
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
		st.Passes += est.Passes
		st.MovesEvaluated += est.MovesEvaluated
		st.MovesApplied += est.MovesApplied
		st.MovesGated += est.MovesGated
		st.BucketOps += est.BucketOps
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
	var seedNode hypergraph.NodeID = -1
	for v := 0; v < h.NumNodes(); v++ {
		id := hypergraph.NodeID(v)
		if h.Node(id).Kind != hypergraph.Interior {
			continue
		}
		if seedNode < 0 || h.Node(id).Size > h.Node(seedNode).Size {
			seedNode = id
		}
	}
	if seedNode < 0 {
		return inA
	}
	inA[seedNode] = true
	size := h.Node(seedNode).Size
	gainTo := map[hypergraph.NodeID]int{}
	expand := func(v hypergraph.NodeID) {
		for _, e := range h.NodeNets(v) {
			for _, u := range h.NetPins(e) {
				if !inA[u] {
					gainTo[u]++
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
			if size+h.Node(u).Size > smax {
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
		size += h.Node(best).Size
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
				if h.Node(u).Kind == hypergraph.Interior {
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
		if h.Node(v).Kind == hypergraph.Pad {
			continue // re-emitted next to its anchor
		}
		final = append(final, v)
		final = append(final, padsOf[v]...)
	}
	return append(final, orphans...)
}

// Partition runs the multilevel peeling driver. It is PartitionCtx with a
// background context.
func Partition(h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	return PartitionCtx(context.Background(), h, dev, cfg)
}

// PartitionCtx runs the multilevel peeling driver under ctx. Cancellation
// is polled at every peel iteration, between coarsening levels, and inside
// each level's FM refinement, so even one V-cycle on a large circuit
// aborts promptly; the partial solution is discarded and ctx's error is
// returned. Structured events flow to cfg.Sink and effort counters land in
// Result.Stats.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if h.NumNodes() == 0 {
		return nil, errors.New("multilevel: empty circuit")
	}
	for _, id := range h.InteriorIDs() {
		if h.Node(id).Size > dev.SMax() {
			return nil, fmt.Errorf("multilevel: node %q larger than device (%d > %d)",
				h.Node(id).Name, h.Node(id).Size, dev.SMax())
		}
	}
	em := obs.NewEmitter(cfg.Sink, cfg.Label)

	p := partition.New(h, dev)
	m := device.LowerBound(h, dev)
	rem := partition.BlockID(0)
	res := &Result{Partition: p, M: m}
	res.Stats.PeakBlocks = p.NumBlocks()
	maxBlocks := device.BlockCap(m)

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
		set, lv, ok, err := vCycleSplit(ctx, p, rem, dev, &res.Stats)
		if err != nil {
			res.Stats.PhaseTime[obs.PhaseSeed] += time.Since(t0)
			em.Emit(obs.Event{Type: obs.Cancelled})
			return nil, err
		}
		res.Levels = lv
		if ok {
			// Saturate the min-cut side under both constraints, exactly as
			// the flow baseline does with its nucleus.
			set = trimToFeasible(p, rem, dev, set)
		}
		if !ok || len(set) == 0 {
			set = seed.Grow(p, rem, dev, biggestSeed(p, rem))
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
		if h.Node(v).Kind == hypergraph.Pad {
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

// biggestSeed returns the biggest interior remainder node as a one-element
// growth seed.
func biggestSeed(p *partition.Partition, rem partition.BlockID) []hypergraph.NodeID {
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
	return []hypergraph.NodeID{s}
}
