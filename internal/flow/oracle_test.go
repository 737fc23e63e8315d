package flow

// Oracles for the shared network: the map-based candidate check the FBB
// carve ran before seed.Fits, and the corridor refinement with its own
// inline Yang–Wong build, each compared with the code that replaced it on
// random partitions.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
	"fpart/internal/seed"
)

// evaluateOracle is the map-based size and terminal count of FBB's
// candidate check: the size and terminal count the block would have if
// set were carved out of the remainder, every net counted once.
func evaluateOracle(p *partition.Partition, set []hypergraph.NodeID) (size, term int) {
	h := p.Hypergraph()
	inX := make(map[hypergraph.NodeID]bool, len(set))
	for _, v := range set {
		inX[v] = true
	}
	seen := make(map[hypergraph.NetID]bool)
	for _, v := range set {
		if h.KindOf(v) == hypergraph.Pad {
			term++
		} else {
			size += h.SizeOf(v)
		}
		for _, e := range h.NodeNets(v) {
			if seen[e] {
				continue
			}
			seen[e] = true
			// The net costs a pin when it has pins outside X: either in
			// another block already, or in the remainder beyond X.
			outside := false
			if p.Span(e) > 1 {
				outside = true
			} else {
				for _, u := range h.NetPins(e) {
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

// fitsOracle is FBB's candidate check before seed.Fits: evaluateOracle
// against S_MAX and T_MAX, then the resource loop against every cap.
func fitsOracle(p *partition.Partition, dev device.Device, set []hypergraph.NodeID) (fits, sizeTermFit bool) {
	sz, term := evaluateOracle(p, set)
	if !dev.Fits(sz, term) {
		return false, false
	}
	res := make([]int, p.NumRes())
	for _, v := range set {
		for r := range res {
			res[r] += p.ResDemandOf(v, r)
		}
	}
	return dev.FitsRes(res), true
}

// oracleInstance draws a random circuit with unit-weight nets, as FBB
// peels: pads, single-pin nets, interior nodes demanding DSP and a DSP
// cap on half the devices, with a random share of the nodes carved into
// other blocks. Block 0 is the remainder.
func oracleInstance(r *rand.Rand) (*partition.Partition, device.Device) {
	n := 20 + r.Intn(80)
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		if r.Intn(7) == 0 {
			b.AddPad("")
		} else {
			b.SetResource(b.AddInterior("", 1+r.Intn(3)), "DSP", r.Intn(3))
		}
	}
	for e := 0; e < n+r.Intn(2*n); e++ {
		pins := make([]hypergraph.NodeID, 1+r.Intn(5))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		b.AddNet("", pins...)
	}
	h := b.MustBuild()
	dev := device.Device{Name: "g", DatasheetCells: 8 + r.Intn(30), Pins: 6 + r.Intn(20), Fill: 1.0}
	if r.Intn(2) == 0 {
		dev.Resources = []device.Resource{{Name: "DSP", Cap: 3 + r.Intn(10)}}
	}
	k := 1 + r.Intn(4)
	assign := make([]partition.BlockID, n)
	for v := range assign {
		if r.Intn(3) == 0 {
			assign[v] = partition.BlockID(r.Intn(k))
		}
	}
	p, err := partition.FromAssignment(h, dev, assign, k)
	if err != nil {
		panic(err)
	}
	return p, dev
}

// TestFitsMatchesEvaluateOracle checks seed.Fits, FBB's candidate check,
// against the map-based evaluate and resource loop it replaced, on random
// remainder subsets. The draw must include sets that only the resource
// loop rejects.
func TestFitsMatchesEvaluateOracle(t *testing.T) {
	fits, rejects, resRejects := 0, 0, 0
	for s := int64(1); s <= 200; s++ {
		r := rand.New(rand.NewSource(s))
		p, dev := oracleInstance(r)
		rem := p.NodesIn(0)
		if len(rem) == 0 {
			continue
		}
		for trial := 0; trial < 10; trial++ {
			perm := r.Perm(len(rem))[:1+r.Intn(len(rem))]
			set := make([]hypergraph.NodeID, len(perm))
			for i, j := range perm {
				set[i] = rem[j]
			}
			slices.Sort(set)
			want, sizeTermFit := fitsOracle(p, dev, set)
			if got := seed.Fits(p, 0, dev, set); got != want {
				t.Fatalf("seed %d trial %d set %v: Fits %v, oracle %v", s, trial, set, got, want)
			}
			switch {
			case want:
				fits++
			case sizeTermFit:
				resRejects++
			default:
				rejects++
			}
		}
	}
	if fits == 0 || rejects == 0 || resRejects == 0 {
		t.Fatalf("one-sided draw: %d fit, %d rejected on size or terminals, %d on resources", fits, rejects, resRejects)
	}
}

// refineInstance draws a random circuit whose nets repeat up to three
// times, folded into weighted nets as on mlfpart's coarse levels, split
// over two to four blocks under a device that fits most blocks.
func refineInstance(r *rand.Rand) (*partition.Partition, device.Device) {
	n := 20 + r.Intn(80)
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			b.AddPad("")
		} else {
			b.AddInterior("", 1+r.Intn(3))
		}
	}
	for e := 0; e < n+r.Intn(n); e++ {
		pins := make([]hypergraph.NodeID, 2+r.Intn(3))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		for c := 1 + r.Intn(3); c > 0; c-- {
			b.AddNet("", pins...)
		}
	}
	h := b.MustBuild().MergeParallelNets()
	k := 2 + r.Intn(3)
	dev := device.Device{Name: "g", DatasheetCells: 2 * h.TotalSize() / k, Pins: 40 + r.Intn(200), Fill: 1.0}
	assign := make([]partition.BlockID, n)
	for v := range assign {
		assign[v] = partition.BlockID(r.Intn(k))
	}
	p, err := partition.FromAssignment(h, dev, assign, k)
	if err != nil {
		panic(err)
	}
	return p, dev
}

// TestRefinePairMatchesOracle checks RefinePairCtx on the shared network
// against the inline transform it replaced: the same verdict, final
// assignment and cut on random weighted partitions, radii and corridor
// bounds. The draw must include both kept and rolled-back refinements.
func TestRefinePairMatchesOracle(t *testing.T) {
	ctx := context.Background()
	kept, rolled := 0, 0
	for s := int64(1); s <= 300; s++ {
		r := rand.New(rand.NewSource(s))
		p, dev := refineInstance(r)
		k := p.NumBlocks()
		a := partition.BlockID(r.Intn(k))
		b := (a + 1 + partition.BlockID(r.Intn(k-1))) % partition.BlockID(k)
		radius, maxCorridor := r.Intn(4), r.Intn(3)*(4+r.Intn(30))
		q, err := partition.FromAssignment(p.Hypergraph(), dev, p.Assignment(nil), k)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d pair %d/%d radius %d corridor %d", s, a, b, radius, maxCorridor)
		got, err := RefinePairCtx(ctx, p, a, b, radius, maxCorridor)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refinePairOracle(ctx, q, a, b, radius, maxCorridor)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: RefinePairCtx %v, oracle %v", label, got, want)
		}
		if !slices.Equal(p.Assignment(nil), q.Assignment(nil)) || p.Cut() != q.Cut() {
			t.Fatalf("%s: assignment or cut (%d vs %d) differs from the oracle", label, p.Cut(), q.Cut())
		}
		if got {
			kept++
		} else {
			rolled++
		}
	}
	if kept == 0 || rolled == 0 {
		t.Fatalf("one-sided draw: %d refinements kept, %d rolled back", kept, rolled)
	}
}

// refinePairOracle is RefinePairCtx as it stood with its own inline
// Yang–Wong build.
func refinePairOracle(ctx context.Context, p *partition.Partition, a, b partition.BlockID, radius, maxCorridor int) (bool, error) {
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
	flowIdx := make([]int32, h.NumNodes())
	for i := range flowIdx {
		flowIdx[i] = -1
	}
	for i, v := range corridor {
		flowIdx[v] = int32(i)
	}
	type netArc struct {
		e1, e2  int32
		w       int32
		srcPin  bool
		sinkPin bool
		pins    []hypergraph.NodeID
	}
	var arcs []netArc
	nc := int32(len(corridor))
	aux := nc
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if !pairNet(ne) {
			continue
		}
		pins := h.NetPins(ne)
		hasCorr, srcPin, sinkPin := false, false, false
		for _, v := range pins {
			if flowIdx[v] >= 0 {
				hasCorr = true
			} else if p.Block(v) == a {
				srcPin = true
			} else {
				sinkPin = true
			}
		}
		if !hasCorr || (srcPin && sinkPin) {
			continue
		}
		arcs = append(arcs, netArc{e1: aux, e2: aux + 1, w: int32(h.NetWeight(ne)), srcPin: srcPin, sinkPin: sinkPin, pins: pins})
		aux += 2
	}
	s, t := aux, aux+1
	g := NewGraph(int(aux)+2, len(arcs)*6+int(nc))
	for _, arc := range arcs {
		g.AddEdge(arc.e1, arc.e2, arc.w)
		for _, v := range arc.pins {
			if vi := flowIdx[v]; vi >= 0 {
				g.AddEdge(vi, arc.e1, Inf)
				g.AddEdge(arc.e2, vi, Inf)
			}
		}
		if arc.srcPin {
			g.AddEdge(s, arc.e1, Inf)
		}
		if arc.sinkPin {
			g.AddEdge(arc.e2, t, Inf)
		}
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	g.MaxFlow(s, t)
	mark := make([]bool, int(aux)+2)
	g.MinCutSource(s, mark)

	// Tentatively reassign the corridor along the min cut, then keep the
	// result only if the cut strictly improved with both blocks feasible.
	oldCut := p.Cut()
	type undo struct {
		v    hypergraph.NodeID
		from partition.BlockID
	}
	var moves []undo
	for _, v := range corridor {
		target := b
		if mark[flowIdx[v]] {
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
