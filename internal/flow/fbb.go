package flow

import (
	"context"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
	"fpart/internal/seed"
)

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
	h := p.Hypergraph()
	nw := remainderNetwork(p, rem, remNodes)
	defer nw.release()
	smax := dev.SMax()

	// Seeds: biggest interior node as source, BFS-farthest as sink.
	s := h.BiggestInterior(remNodes)
	if s < 0 {
		s = remNodes[0]
	}
	nw.merge(nw.idx[s], true)
	if t := seed.Farthest(p, rem, s); t >= 0 {
		nw.merge(nw.idx[t], false)
	}

	var best, side []hypergraph.NodeID
	bestSize := -1
	guard := len(remNodes) + 4
	for iter := 0; iter < guard; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		onSource := nw.cut()
		// The candidate block is the smaller side of the cut (the min cut
		// can hug either terminal depending on the seeds); grow it toward
		// S_MAX by collapsing it into its terminal and merging its best
		// frontier node.
		srcSize, sinkSize := 0, 0
		for i, v := range remNodes {
			if onSource[i] {
				srcSize += h.SizeOf(v)
			} else {
				sinkSize += h.SizeOf(v)
			}
		}
		toSource, size := true, srcSize
		if sinkSize < srcSize {
			toSource, size = false, sinkSize
		}
		if size > smax {
			break // both sides overshoot: previous best stands
		}
		side = side[:0]
		for i, v := range remNodes {
			if onSource[i] == toSource {
				side = append(side, v)
				nw.merge(int32(i), toSource)
			}
		}
		// seed.Grow below only adds nodes, so a nucleus over any cap could
		// never shed the excess: Fits rejects it here.
		if (float64(size) >= minFill*float64(smax) || bestSize < 0) &&
			size > bestSize && seed.Fits(p, rem, dev, side) {
			bestSize = size
			best = append(best[:0], side...)
		}
		u := nw.bestFrontier(side, onSource, toSource)
		if u < 0 {
			break
		}
		nw.merge(u, toSource)
	}
	if bestSize <= 0 {
		return nil, false, nil
	}
	// The min cut can jump far past S_MAX between merges, leaving a small
	// nucleus as the best flow candidate. Saturate it greedily (pin-aware)
	// the way FBB-MW's balancing merge does.
	return seed.Grow(p, rem, dev, best), true, nil
}

// remainderNetwork is the transform of the remainder's nodes that FBB
// carves on. Only nets with every pin in the remainder are bridged: nets
// already cut (touching peeled blocks) keep their cut state, but still
// count toward the candidates' terminals.
func remainderNetwork(p *partition.Partition, rem partition.BlockID, nodes []hypergraph.NodeID) *network {
	h := p.Hypergraph()
	nw := newNetwork(h, nodes)
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if d := h.NetDegree(ne); d >= 2 && p.PinCount(ne, rem) == d {
			nw.addNet(ne, false, false)
		}
	}
	return nw
}

// bestFrontier picks the region node outside the candidate side (the nodes
// whose onSource entry equals toSource) with the most nets into it, ties
// to the lowest flow index, skipping nodes already pinned to the opposite
// terminal; when the side is a whole component it jumps to the
// lowest-index free node.
func (nw *network) bestFrontier(side []hypergraph.NodeID, onSource []bool, toSource bool) int32 {
	blocked := nw.inSink
	if !toSource {
		blocked = nw.inSource
	}
	touched := nw.touched[:0]
	for _, v := range side {
		for _, e := range nw.h.NodeNets(v) {
			for _, u := range nw.h.NetPins(e) {
				ui := nw.idx[u]
				if ui < 0 || onSource[ui] == toSource || blocked[ui] {
					continue
				}
				if nw.count[ui] == 0 {
					touched = append(touched, ui)
				}
				nw.count[ui]++
			}
		}
	}
	var bestU int32 = -1
	var bestC int32
	for _, ui := range touched {
		if c := nw.count[ui]; c > bestC || c == bestC && ui < bestU {
			bestU, bestC = ui, c
		}
		nw.count[ui] = 0
	}
	nw.touched = touched
	if bestU >= 0 {
		return bestU
	}
	for i := range nw.nodes {
		if onSource[i] != toSource && !blocked[i] {
			return int32(i)
		}
	}
	return -1
}
