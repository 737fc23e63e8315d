// Package wcdp implements an ordering + dynamic-programming partitioning
// baseline in the spirit of WCDP (Huang & Kahng, FPGA'95, reference [6] of
// the FPART paper: "WINDOW ordering, clustering and dynamic programming").
//
// The method has two stages:
//
//  1. A clustering linear ordering of the nodes (the "C" in WCDP): the
//     depth-first expansion of a heavy-edge coarsening hierarchy
//     (multilevel.ClusterOrder). This concentrates each cluster of the
//     circuit into a contiguous run of the ordering.
//  2. A dynamic program that cuts the ordering into the minimum number of
//     consecutive segments, each of which meets the device constraints
//     (size, terminals, and every extra resource axis). Segment terminal
//     counts follow the same model as the partition bookkeeping: a net
//     costs a pin wherever it crosses the segment boundary, and each pad
//     costs its IOB.
//
// The DP is exact *for the chosen ordering*; overall quality depends on
// how well the ordering linearizes the circuit, which is why the published
// WCDP trails FBB-MW and FPART on most instances (Tables 4–5).
package wcdp

import (
	"context"
	"time"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/multilevel"
	"fpart/internal/partition"
)

// Result mirrors the other drivers' results.
type Result struct {
	Partition *partition.Partition
	K         int
	M         int
	Feasible  bool
	// Order is the linear arrangement used by the DP.
	Order   []hypergraph.NodeID
	Elapsed time.Duration
}

// Partition runs ordering + DP.
func Partition(h *hypergraph.Hypergraph, dev device.Device) (*Result, error) {
	start := time.Now()
	if err := core.CheckInput(context.Background(), h, dev); err != nil {
		return nil, err
	}
	n := h.NumNodes()
	order := multilevel.ClusterOrder(h)
	// The DP's segment length bound in nodes: unit-size interiors
	// dominate, so a segment may hold a full device of logic plus its
	// share of pads.
	maxSeg := dev.SMax() + dev.TMax() + 8

	parent, ok := segmentDP(h, dev, order, maxSeg)
	res := &Result{M: device.LowerBound(h, dev), Order: order}
	p := partition.New(h, dev)
	res.Partition = p
	if !ok {
		// No feasible segmentation under the ordering (e.g., a node whose
		// incident pins exceed T_MAX alone); report infeasible with
		// everything in block 0.
		res.K = 1
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Reconstruct segments right-to-left; assign each to a block.
	var bounds []int
	for i := n; i > 0; i = parent[i] {
		bounds = append(bounds, i)
	}
	// bounds is descending: [n, ..., firstSegmentEnd]; segments are
	// (parent[i], i].
	for si := len(bounds) - 1; si >= 0; si-- {
		end := bounds[si]
		begin := parent[end]
		var blk partition.BlockID
		if si == len(bounds)-1 {
			blk = 0 // reuse the initial block for the first segment
		} else {
			blk = p.AddBlock()
		}
		for oi := begin; oi < end; oi++ {
			p.Move(order[oi], blk)
		}
	}
	res.K = 0
	for b := 0; b < p.NumBlocks(); b++ {
		if p.Nodes(partition.BlockID(b)) > 0 {
			res.K++
		}
	}
	res.Feasible = p.Classify() == partition.FeasibleSolution
	res.Elapsed = time.Since(start)
	return res, nil
}

// segmentDP computes, for every prefix length i, the minimum number of
// feasible segments covering order[0:i]; parent[i] records the start of
// the last segment. Returns ok=false when no full segmentation exists.
func segmentDP(h *hypergraph.Hypergraph, dev device.Device, order []hypergraph.NodeID, maxSeg int) (parent []int, ok bool) {
	n := len(order)
	const inf = int(1) << 30
	f := make([]int, n+1)
	parent = make([]int, n+1)
	pos := make([]int, h.NumNodes()) // node -> position in order
	for i, v := range order {
		pos[v] = i
	}
	for i := 1; i <= n; i++ {
		f[i] = inf
		parent[i] = -1
	}

	// For each segment end i, extend the segment leftward maintaining
	// size, resource, and terminal counts incrementally. cols[r] is the
	// demand column of dev.Resources[r], nil when the netlist has none.
	cols := make([][]int32, len(dev.Resources))
	for r, rs := range dev.Resources {
		cols[r] = h.ResourceColumn(rs.Name)
	}
	res := make([]int, len(cols))
	pinsIn := make(map[hypergraph.NetID]int)
	for i := 1; i <= n; i++ {
		for k := range pinsIn {
			delete(pinsIn, k)
		}
		clear(res)
		size, pads, term := 0, 0, 0
		lo := i - maxSeg
		if lo < 0 {
			lo = 0
		}
		for j := i - 1; j >= lo; j-- {
			// Segment is order[j:i]; add node order[j] on the left.
			v := order[j]
			size += h.SizeOf(v)
			for r, col := range cols {
				if col != nil {
					res[r] += int(col[v])
				}
			}
			if h.KindOf(v) == hypergraph.Pad {
				pads++
			}
			for _, e := range h.NodeNets(v) {
				before := pinsIn[e]
				after := before + 1
				pinsIn[e] = after
				total := len(h.NetPins(e))
				// A net crosses when the segment holds some but not all of
				// its pins... but pins to the RIGHT of i or LEFT of j are
				// both outside; total inside is `after` only if every pin
				// of e within [j, i) has been added — which holds because
				// we add leftward from i-1 and pins right of i are never
				// inside. So crossing iff after < total AND after > 0,
				// *except* pins between j and i-1 not yet visited... those
				// will be added as j decreases; at this j the segment is
				// exactly [j, i), and pinsIn counts pins with position in
				// [j, i) because each was added when its position was
				// reached. Correct as-is.
				wasCross := before > 0 && before < total
				isCross := after > 0 && after < total
				if isCross && !wasCross {
					term++
				} else if !isCross && wasCross {
					term--
				}
			}
			if size > dev.SMax() {
				break // growing further only increases size
			}
			if !dev.FitsRes(res) {
				break // resource totals, like size, only grow
			}
			if term+pads <= dev.TMax() && f[j] != inf && f[j]+1 < f[i] {
				f[i] = f[j] + 1
				parent[i] = j
			}
		}
	}
	if f[n] == inf {
		return parent, false
	}
	return parent, true
}
