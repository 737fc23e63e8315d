package flow

import (
	"context"

	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// RefinePairCtx runs one flow-based refinement step on the boundary
// between blocks a and b, in the spirit of Heuer–Sanders–Schlag's
// network-flow refinement for multilevel partitioning: it collects the
// corridor of interior cells within radius BFS hops of the a↔b cut, builds
// the Yang–Wong flow transform of the corridor (nets reaching cells
// outside the corridor are pinned to the source or sink side), and
// reassigns corridor cells along the min cut. The reassignment is applied
// tentatively and kept only when the global cut strictly improves and both
// blocks stay device-feasible; otherwise every move is rolled back.
//
// maxCorridor bounds the corridor cell count so one max-flow stays
// affordable; the mlfpart engine only invokes this on coarse levels. The
// whole procedure is deterministic: corridor collection follows net/pin
// order and Dinic's augmentation order is fixed.
func RefinePairCtx(ctx context.Context, p *partition.Partition, a, b partition.BlockID, radius, maxCorridor int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	h := p.Hypergraph()
	if maxCorridor <= 0 {
		maxCorridor = 2048
	}

	inPair := func(v hypergraph.NodeID) bool {
		blk := p.Block(v)
		return blk == a || blk == b
	}
	// pairNet reports whether every pin of e lies in a ∪ b; only such nets
	// can change cut state when cells shuffle between a and b.
	pairNet := func(e hypergraph.NetID) bool {
		return p.PinCount(e, a)+p.PinCount(e, b) == h.NetDegree(e)
	}

	// Seed the corridor with the endpoints of nets currently cut strictly
	// between a and b, then grow it by BFS over pair-internal nets. Pads
	// never enter the corridor: their side is part of the device's pin
	// assignment, not something flow refinement should rewrite.
	inCorr := make([]bool, h.NumNodes())
	var corridor []hypergraph.NodeID
	add := func(v hypergraph.NodeID) {
		if !inCorr[v] && len(corridor) < maxCorridor &&
			h.KindOf(v) == hypergraph.Interior && inPair(v) {
			inCorr[v] = true
			corridor = append(corridor, v)
		}
	}
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if p.PinCount(ne, a) == 0 || p.PinCount(ne, b) == 0 || !pairNet(ne) {
			continue
		}
		for _, v := range h.NetPins(ne) {
			add(v)
		}
	}
	frontier := corridor
	for r := 0; r < radius && len(frontier) > 0 && len(corridor) < maxCorridor; r++ {
		mark := len(corridor)
		for _, v := range frontier {
			for _, e := range h.NodeNets(v) {
				if !pairNet(e) {
					continue
				}
				for _, u := range h.NetPins(e) {
					add(u)
				}
			}
		}
		frontier = corridor[mark:]
	}
	if len(corridor) < 2 {
		return false, nil
	}

	// Yang–Wong transform over the corridor. Each pair-internal net with a
	// corridor pin gets a bridging edge whose capacity is the net's
	// weight; non-corridor pins pin the net to the source (block a) or
	// sink (block b) side. A net pinned to both sides is cut no matter how
	// the corridor falls, so it carries no bridging edge.
	nw := newNetwork(h, corridor)
	defer nw.release()
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if !pairNet(ne) {
			continue
		}
		hasCorr, srcPin, sinkPin := false, false, false
		for _, v := range h.NetPins(ne) {
			if inCorr[v] {
				hasCorr = true
			} else if p.Block(v) == a {
				srcPin = true
			} else {
				sinkPin = true
			}
		}
		if hasCorr && !(srcPin && sinkPin) {
			nw.addNet(ne, srcPin, sinkPin)
		}
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	onA := nw.cut()

	// Tentatively reassign the corridor along the min cut, then keep the
	// result only if the cut strictly improved with both blocks feasible.
	oldCut := p.Cut()
	type undo struct {
		v    hypergraph.NodeID
		from partition.BlockID
	}
	var moves []undo
	for i, v := range corridor {
		target := b
		if onA[i] {
			target = a
		}
		if from := p.Block(v); from != target {
			moves = append(moves, undo{v, from})
			p.Move(v, target)
		}
	}
	if len(moves) == 0 {
		return false, nil
	}
	if p.Cut() < oldCut && p.Feasible(a) && p.Feasible(b) {
		return true, nil
	}
	for i := len(moves) - 1; i >= 0; i-- {
		p.Move(moves[i].v, moves[i].from)
	}
	return false, nil
}
