package flow

import (
	"context"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
	"fpart/internal/seed"
)

// fbbNetwork is the Yang–Wong flow transform of the remainder of a
// partition: every remainder node becomes a flow node; every net whose pins
// all lie in the remainder becomes a capacity-1 bridging edge between two
// auxiliary net nodes, with infinite-capacity pin edges. Nets already cut
// (touching peeled blocks) carry no bridging edge — their cut state is fixed
// — but still count toward terminal evaluation.
type fbbNetwork struct {
	g        *Graph
	p        *partition.Partition
	h        *hypergraph.Hypergraph
	rem      partition.BlockID
	nodes    []hypergraph.NodeID         // remainder nodes, flow index = position
	flowIdx  map[hypergraph.NodeID]int32 // node -> flow index
	s, t     int32                       // super source / sink
	mark     []bool
	inSource []bool // nodes already collapsed into the source side
	inSink   []bool
}

func buildNetwork(p *partition.Partition, rem partition.BlockID) *fbbNetwork {
	h := p.Hypergraph()
	nodes := p.NodesIn(rem)
	n := len(nodes)
	flowIdx := make(map[hypergraph.NodeID]int32, n)
	for i, v := range nodes {
		flowIdx[v] = int32(i)
	}
	// Count internal nets to size the graph.
	internal := 0
	pins := 0
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if p.Span(ne) == 1 && p.PinCount(ne, rem) == len(h.NetPins(ne)) && len(h.NetPins(ne)) >= 2 {
			internal++
			pins += len(h.NetPins(ne))
		}
	}
	total := n + 2*internal + 2
	g := NewGraph(total, internal+2*pins+2*n)
	nw := &fbbNetwork{
		g: g, p: p, h: h, rem: rem,
		nodes: nodes, flowIdx: flowIdx,
		s: int32(total - 2), t: int32(total - 1),
		mark:     make([]bool, total),
		inSource: make([]bool, n),
		inSink:   make([]bool, n),
	}
	aux := int32(n)
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		ep := h.NetPins(ne)
		if !(p.Span(ne) == 1 && p.PinCount(ne, rem) == len(ep) && len(ep) >= 2) {
			continue
		}
		e1, e2 := aux, aux+1
		aux += 2
		g.AddEdge(e1, e2, 1)
		for _, v := range ep {
			vi := flowIdx[v]
			g.AddEdge(vi, e1, Inf)
			g.AddEdge(e2, vi, Inf)
		}
	}
	return nw
}

// mergeSource pins node (by flow index) to the source side.
func (nw *fbbNetwork) mergeSource(i int32) {
	if !nw.inSource[i] {
		nw.inSource[i] = true
		nw.g.AddEdge(nw.s, i, Inf)
	}
}

// mergeSink pins node (by flow index) to the sink side.
func (nw *fbbNetwork) mergeSink(i int32) {
	if !nw.inSink[i] {
		nw.inSink[i] = true
		nw.g.AddEdge(i, nw.t, Inf)
	}
}

// cutSides runs max-flow and returns the flow indices of remainder nodes on
// the source side (residual-reachable) and the sink side (the complement).
func (nw *fbbNetwork) cutSides() (src, sink []int32) {
	nw.g.MaxFlow(nw.s, nw.t)
	nw.g.MinCutSource(nw.s, nw.mark)
	for i := range nw.nodes {
		if nw.mark[i] {
			src = append(src, int32(i))
		} else {
			sink = append(sink, int32(i))
		}
	}
	return src, sink
}

// evaluate returns the size and terminal count the block would have if the
// given flow indices were carved out of the remainder.
func (nw *fbbNetwork) evaluate(side []int32) (size, term int) {
	inX := make(map[hypergraph.NodeID]bool, len(side))
	for _, i := range side {
		inX[nw.nodes[i]] = true
	}
	seen := make(map[hypergraph.NetID]bool)
	for _, i := range side {
		v := nw.nodes[i]
		if nw.h.KindOf(v) == hypergraph.Pad {
			term++
		} else {
			size += nw.h.SizeOf(v)
		}
		for _, e := range nw.h.NodeNets(v) {
			if seen[e] {
				continue
			}
			seen[e] = true
			// The net costs a pin when it has pins outside X: either in
			// another block already, or in the remainder beyond X.
			outside := false
			if nw.p.Span(e) > 1 {
				outside = true
			} else {
				for _, u := range nw.h.NetPins(e) {
					if !inX[u] {
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
	return size, term
}

// fbbPeelCtx extracts one block from the remainder using flow-balanced
// bipartition: the source side is grown node by node (collapsing each min
// cut into the source) until its size would exceed S_MAX, keeping the best
// device-feasible candidate seen. minFill sets the smallest acceptable
// size as a fraction of S_MAX for pin evaluation (evaluation below it is
// skipped for speed but candidates are still tracked by the final pick).
// It returns the chosen node set, or ok=false when nothing fits. The grow
// loop — one max-flow plus merge per round, the carve's pass loop — polls
// ctx and returns its error when the context dies mid-carve.
func fbbPeelCtx(ctx context.Context, p *partition.Partition, rem partition.BlockID, dev device.Device, minFill float64) ([]hypergraph.NodeID, bool, error) {
	remNodes := p.NodesIn(rem)
	if len(remNodes) < 2 {
		return nil, false, nil
	}
	nw := buildNetwork(p, rem)
	h := p.Hypergraph()
	smax := dev.SMax()

	// Seeds: biggest interior node as source, BFS-farthest as sink.
	s := h.BiggestInterior(remNodes)
	if s < 0 {
		s = remNodes[0]
	}
	nw.mergeSource(nw.flowIdx[s])
	if t := seed.Farthest(p, rem, s); t >= 0 {
		nw.mergeSink(nw.flowIdx[t])
	}

	var best []hypergraph.NodeID
	bestSize := -1
	res := make([]int, p.NumRes())
	guard := len(remNodes) + 4
	for iter := 0; iter < guard; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		src, sink := nw.cutSides()
		// The candidate block is the smaller side of the cut (the min cut
		// can hug either terminal depending on the seeds); grow it toward
		// S_MAX by collapsing it into its terminal and merging its best
		// frontier node.
		side, toSource := src, true
		if sideSize(h, nw, sink) < sideSize(h, nw, src) {
			side, toSource = sink, false
		}
		size := sideSize(h, nw, side)
		if size > smax {
			break // both sides overshoot: previous best stands
		}
		if float64(size) >= minFill*float64(smax) || bestSize < 0 {
			sz, term := nw.evaluate(side)
			if dev.Fits(sz, term) && sz > bestSize {
				// seed.Grow below only adds nodes, so a nucleus over any
				// resource cap could never shed the excess: reject it here.
				clear(res)
				for _, i := range side {
					for r := range res {
						res[r] += p.ResDemandOf(nw.nodes[i], r)
					}
				}
				if dev.FitsRes(res) {
					bestSize = sz
					best = best[:0]
					for _, i := range side {
						best = append(best, nw.nodes[i])
					}
				}
			}
		}
		// Collapse the candidate side into its terminal and grow.
		inSide := make(map[int32]bool, len(side))
		for _, i := range side {
			inSide[i] = true
			if toSource {
				nw.mergeSource(i)
			} else {
				nw.mergeSink(i)
			}
		}
		u := nw.bestFrontier(side, inSide, toSource)
		if u < 0 {
			break
		}
		if toSource {
			nw.mergeSource(u)
		} else {
			nw.mergeSink(u)
		}
	}
	if bestSize <= 0 {
		return nil, false, nil
	}
	// The min cut can jump far past S_MAX between merges, leaving a small
	// nucleus as the best flow candidate. Saturate it greedily (pin-aware)
	// the way FBB-MW's balancing merge does.
	return seed.Grow(p, rem, dev, best), true, nil
}

// sideSize sums interior sizes over a side's flow indices.
func sideSize(h *hypergraph.Hypergraph, nw *fbbNetwork, side []int32) int {
	size := 0
	for _, i := range side {
		size += h.SizeOf(nw.nodes[i])
	}
	return size
}

// bestFrontier picks the remainder node outside the candidate side with the
// most nets into it, skipping nodes already pinned to the opposite terminal;
// when the side is a whole component it jumps to the lowest-index free node.
func (nw *fbbNetwork) bestFrontier(side []int32, inSide map[int32]bool, toSource bool) int32 {
	blocked := nw.inSink
	if !toSource {
		blocked = nw.inSource
	}
	counts := make(map[int32]int)
	for _, i := range side {
		v := nw.nodes[i]
		for _, e := range nw.h.NodeNets(v) {
			for _, u := range nw.h.NetPins(e) {
				ui, ok := nw.flowIdx[u]
				if !ok || inSide[ui] || blocked[ui] {
					continue
				}
				counts[ui]++
			}
		}
	}
	var bestU int32 = -1
	bestC := 0
	for u, c := range counts {
		if c > bestC || (c == bestC && (bestU < 0 || u < bestU)) {
			bestU, bestC = u, c
		}
	}
	if bestU >= 0 {
		return bestU
	}
	for i := range nw.nodes {
		ii := int32(i)
		if !inSide[ii] && !blocked[ii] {
			return ii
		}
	}
	return -1
}
