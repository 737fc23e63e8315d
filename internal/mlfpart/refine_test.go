package mlfpart

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
)

// bestMoveRef is bestMove by one full net loop per candidate target: the
// exact cut gain of moving v to t, from each net's span before and after.
func bestMoveRef(p *partition.Partition, v hypergraph.NodeID) moveCand {
	h := p.Hypergraph()
	from := p.Block(v)
	nets := h.NodeNets(v)
	var targets []partition.BlockID
	for _, e := range nets {
		if p.Span(e) == 2 {
			if t := p.OtherBlock(e, from); !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
	}
	best := moveCand{target: from}
	for _, t := range targets {
		var g int32
		for _, e := range nets {
			if h.NetDegree(e) < 2 {
				continue
			}
			span := p.Span(e)
			newSpan := span
			if p.PinCount(e, from) == 1 {
				newSpan--
			}
			if p.PinCount(e, t) == 0 {
				newSpan++
			}
			if span > 1 {
				g += int32(h.NetWeight(e))
			}
			if newSpan > 1 {
				g -= int32(h.NetWeight(e))
			}
		}
		if g > best.gain || (g == best.gain && g > 0 && t < best.target) {
			best = moveCand{gain: g, target: t}
		}
	}
	return best
}

// pairBoundary is one pair's boundary by its own sweep over every net: the
// interior cells of blocks a and b incident to a net with pins in both,
// sorted by ID.
func pairBoundary(p *partition.Partition, a, b partition.BlockID) []hypergraph.NodeID {
	h := p.Hypergraph()
	seen := make([]bool, h.NumNodes())
	var cells []hypergraph.NodeID
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if p.PinCount(ne, a) == 0 || p.PinCount(ne, b) == 0 {
			continue
		}
		for _, v := range h.NetPins(ne) {
			if seen[v] || h.KindOf(v) != hypergraph.Interior {
				continue
			}
			if blk := p.Block(v); blk == a || blk == b {
				seen[v] = true
				cells = append(cells, v)
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	return cells
}

// refineInstance draws a random circuit with pads, single-pin nets and
// repeated nets folded into weighted ones, and a random k-block
// assignment of it.
func refineInstance(r *rand.Rand) *partition.Partition {
	n := 30 + r.Intn(200)
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		if r.Intn(9) == 0 {
			b.AddPad("")
		} else {
			b.AddInterior("", 1+r.Intn(2))
		}
	}
	for e := 0; e < n+r.Intn(2*n); e++ {
		pins := make([]hypergraph.NodeID, 1+r.Intn(5))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		for c := 1 + r.Intn(3); c > 0; c-- {
			b.AddNet("", pins...)
		}
	}
	h := b.MustBuild().MergeParallelNets()
	k := 2 + r.Intn(12)
	assign := make([]partition.BlockID, n)
	for v := range assign {
		// Skewed draws leave some blocks sharing few nets, so pairs range
		// from wide to narrow boundaries.
		assign[v] = partition.BlockID(min(r.Intn(k), r.Intn(k)))
	}
	dev, _ := device.ByName("XC3020")
	p, err := partition.FromAssignment(h, dev, assign, k)
	if err != nil {
		panic(err)
	}
	return p
}

// TestBestMoveMatchesPerTargetLoop checks bestMove's one-sweep gain against
// the per-target net loop for every cell of random partitions.
func TestBestMoveMatchesPerTargetLoop(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		p := refineInstance(rand.New(rand.NewSource(seed)))
		for v := 0; v < p.Hypergraph().NumNodes(); v++ {
			id := hypergraph.NodeID(v)
			if got, want := bestMove(p, id), bestMoveRef(p, id); got != want {
				t.Fatalf("seed %d cell %d: bestMove %+v, per-target loop %+v", seed, v, got, want)
			}
		}
	}
}

// TestPairBoundariesMatchPerPairSweep checks the one-sweep boundaries of a
// level's pair matching against one pairBoundary sweep per pair, on random
// partitions, before the first pair's FM and again before each later
// pair's FM: FM on one pair must not change another pair's boundary.
func TestPairBoundariesMatchPerPairSweep(t *testing.T) {
	moves := 0
	for seed := int64(1); seed <= 60; seed++ {
		p := refineInstance(rand.New(rand.NewSource(seed)))
		r := new(refiner)
		pairs := r.topPairs(p)
		bounds := r.pairBoundaries(p, pairs)
		if len(bounds) != len(pairs) {
			t.Fatalf("seed %d: %d boundaries for %d pairs", seed, len(bounds), len(pairs))
		}
		eng := sanchis.New(p, pairFMConfig)
		for i, pr := range pairs {
			for j := i; j < len(pairs); j++ {
				if want := pairBoundary(p, pairs[j].a, pairs[j].b); !slices.Equal(bounds[j], want) {
					t.Fatalf("seed %d pair %d (%d,%d) after %d pairs' FM: one sweep %v, per-pair sweep %v",
						seed, j, pairs[j].a, pairs[j].b, i, bounds[j], want)
				}
			}
			if len(bounds[i]) < 2 {
				continue
			}
			st, err := eng.ImproveSubsetCtx(context.Background(), []partition.BlockID{pr.a, pr.b}, partition.NoBlock, 0, bounds[i])
			if err != nil {
				t.Fatal(err)
			}
			moves += st.MovesApplied
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if moves == 0 {
		t.Fatal("no pair's FM moved a cell; the later-pair checks saw unchanged partitions")
	}
}
