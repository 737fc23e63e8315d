// Package setcover implements a set-covering partitioning baseline in the
// spirit of Chou et al. (DAC 1994, reference [3] of the FPART paper:
// "local ratio-cut" clustering and set covering for huge logic emulation
// systems).
//
// The method decouples cluster generation from selection:
//
//  1. Candidate generation: device-feasible clusters are grown greedily
//     (pin-aware, the same S/T cost the seed constructors use) from many
//     seed nodes spread across the circuit.
//  2. Greedy set cover: candidates are chosen by maximum coverage of
//     still-uncovered nodes until every node is covered.
//  3. Overlap resolution: nodes claimed by several chosen clusters stay
//     with the one that claimed them first; shrunken clusters remain
//     feasible because removing nodes can only reduce size, and a final
//     repair pass sheds any pin violations introduced by the split nets.
package setcover

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
	"fpart/internal/seed"
)

// Result mirrors the other drivers' results.
type Result struct {
	Partition  *partition.Partition
	K          int
	M          int
	Feasible   bool
	Candidates int // clusters generated
	Elapsed    time.Duration
}

// Partition runs candidate generation + greedy set cover.
func Partition(h *hypergraph.Hypergraph, dev device.Device) (*Result, error) {
	start := time.Now()
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if h.NumNodes() == 0 {
		return nil, errors.New("setcover: empty circuit")
	}
	for _, id := range h.InteriorIDs() {
		if h.Node(id).Size > dev.SMax() {
			return nil, fmt.Errorf("setcover: node %q larger than device (%d > %d)",
				h.Node(id).Name, h.Node(id).Size, dev.SMax())
		}
	}
	m := device.LowerBound(h, dev)
	res := &Result{M: m}
	maxBlocks := device.BlockCap(m)

	// Candidate generation over a scratch partition (everything in block
	// 0, so seed.Grow sees the whole circuit as the remainder), from
	// 2·M+8 start points spread across the circuit.
	scratch := partition.New(h, dev)
	seeds := spreadSeeds(h, 2*m+8)
	candidates := make([][]hypergraph.NodeID, 0, len(seeds))
	for _, s := range seeds {
		c := seed.Grow(scratch, 0, dev, []hypergraph.NodeID{s})
		if len(c) > 0 {
			candidates = append(candidates, c)
		}
	}
	res.Candidates = len(candidates)

	// Greedy set cover by uncovered-size coverage; ties toward fewer
	// terminals are implicit in generation order determinism.
	covered := make([]bool, h.NumNodes())
	uncovered := h.NumNodes()
	type chosen struct{ nodes []hypergraph.NodeID }
	var picks []chosen
	for uncovered > 0 && len(picks) < maxBlocks {
		bestIdx, bestGain := -1, 0
		for i, c := range candidates {
			gain := 0
			for _, v := range c {
				if !covered[v] {
					gain++
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			// No candidate covers anything new: grow a fresh cluster from
			// the lowest uncovered node on a partition reflecting leftover
			// structure. Simplest robust move: take the uncovered nodes as
			// one more pick chunked greedily below.
			break
		}
		picks = append(picks, chosen{nodes: candidates[bestIdx]})
		for _, v := range candidates[bestIdx] {
			if !covered[v] {
				covered[v] = true
				uncovered--
			}
		}
		// Remove the pick to avoid reselecting it.
		candidates[bestIdx] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
	}

	// Materialize: the chosen covers locate dense regions; each block is
	// regrown live from its cover's anchor against the current remainder
	// (block 0), so overlaps shrink into whatever is still unassigned and
	// every carved block is feasible by construction.
	p := partition.New(h, dev)
	res.Partition = p
	for _, pick := range picks {
		if p.Feasible(0) {
			break
		}
		var anchor hypergraph.NodeID = -1
		for _, v := range pick.nodes {
			if p.Block(v) == 0 && h.Node(v).Kind == hypergraph.Interior {
				anchor = v
				break
			}
		}
		if anchor < 0 {
			continue
		}
		grown := seed.Grow(p, 0, dev, []hypergraph.NodeID{anchor})
		if len(grown) == 0 || len(grown) == p.Nodes(0) {
			continue // absorbing everything means block 0 already fits
		}
		blk := p.AddBlock()
		for _, v := range grown {
			p.Move(v, blk)
		}
	}
	// Peel whatever remains in block 0 until it fits.
	repair(p, dev)
	for !p.Feasible(0) && p.NumBlocks() < maxBlocks {
		var seedNode hypergraph.NodeID = -1
		for _, v := range p.NodesIn(0) {
			if h.Node(v).Kind != hypergraph.Interior {
				continue
			}
			if seedNode < 0 || h.Node(v).Size > h.Node(seedNode).Size {
				seedNode = v
			}
		}
		if seedNode < 0 {
			break
		}
		grown := seed.Grow(p, 0, dev, []hypergraph.NodeID{seedNode})
		if len(grown) == 0 || len(grown) == p.Nodes(0) {
			break
		}
		blk := p.AddBlock()
		for _, v := range grown {
			p.Move(v, blk)
		}
	}
	res.Feasible = p.Classify() == partition.FeasibleSolution
	for b := 0; b < p.NumBlocks(); b++ {
		if p.Nodes(partition.BlockID(b)) > 0 {
			res.K++
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// spreadSeeds picks n interior nodes spread across the node-ID space
// (which, for the synthetic suite, follows the cluster hierarchy), always
// including the biggest node.
func spreadSeeds(h *hypergraph.Hypergraph, n int) []hypergraph.NodeID {
	interior := h.InteriorIDs()
	if len(interior) == 0 {
		return nil
	}
	if n > len(interior) {
		n = len(interior)
	}
	out := make([]hypergraph.NodeID, 0, n)
	seen := map[hypergraph.NodeID]bool{}
	biggest := interior[0]
	for _, v := range interior {
		if h.Node(v).Size > h.Node(biggest).Size {
			biggest = v
		}
	}
	out = append(out, biggest)
	seen[biggest] = true
	for i := 0; len(out) < n; i++ {
		v := interior[(i*len(interior))/n%len(interior)]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		if i > 4*len(interior) {
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// repair sheds loose nodes from infeasible blocks back to block 0, then
// from block 0 into fresh blocks if needed — mirroring the other drivers'
// safety nets.
func repair(p *partition.Partition, dev device.Device) {
	h := p.Hypergraph()
	for b := 1; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		for !p.Feasible(id) && p.Nodes(id) > 0 {
			var worst hypergraph.NodeID = -1
			score := 0
			sizeViolated := p.Size(id) > dev.SMax()
			for _, v := range p.NodesIn(id) {
				internal := 0
				for _, e := range h.NodeNets(v) {
					if p.Span(e) == 1 {
						internal++
					}
				}
				s := -internal
				if sizeViolated {
					s += h.Node(v).Size * 8
				}
				if worst < 0 || s > score {
					worst, score = v, s
				}
			}
			p.Move(worst, 0)
		}
	}
}
