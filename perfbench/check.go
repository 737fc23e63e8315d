package main

import (
	"fmt"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// claim is what an engine or the service reported about one result.
type claim struct {
	K        int
	Cut      int // quality.Analyze's cut
	Feasible bool
}

// verdict is the checker's own recomputation of one result.
type verdict struct {
	K, Cut   int
	Feasible bool
	// Violations lists every block limit the assignment breaks.
	Violations []string
}

// check recomputes a result from the raw hypergraph and the returned
// block assignment: every block's size, secondary and vector resource
// totals and terminals (cut-incident nets plus pads, §2), K and the cut,
// and compares them with the device limits. It reads only hypergraph
// accessors and device fields and shares no code with the partition
// state that produced the assignment.
func check(h *hypergraph.Hypergraph, dev device.Device, assign []int) (verdict, error) {
	n := h.NumNodes()
	if len(assign) != n {
		return verdict{}, fmt.Errorf("assignment covers %d of %d nodes", len(assign), n)
	}
	// Compact block ids so K counts non-empty blocks only.
	idx := map[int]int{}
	for v, b := range assign {
		if b < 0 {
			return verdict{}, fmt.Errorf("node %d has block %d", v, b)
		}
		if _, ok := idx[b]; !ok {
			idx[b] = len(idx)
		}
	}
	k := len(idx)
	size := make([]int, k)
	aux := make([]int, k)
	pads := make([]int, k)
	cutInc := make([]int, k)
	cols := make([][]int32, len(dev.Resources))
	for r, res := range dev.Resources {
		cols[r] = h.ResourceColumn(res.Name)
	}
	res := make([][]int, k)
	for b := range res {
		res[b] = make([]int, len(dev.Resources))
	}
	blk := make([]int, n)
	for v := 0; v < n; v++ {
		b := idx[assign[v]]
		blk[v] = b
		id := hypergraph.NodeID(v)
		size[b] += h.SizeOf(id)
		aux[b] += h.AuxOf(id)
		if h.KindOf(id) == hypergraph.Pad {
			pads[b]++
		}
		for r, col := range cols {
			if col != nil {
				res[b][r] += int(col[v])
			}
		}
	}

	cut := 0
	seen := make([]int, k) // seen[b] == net+1 marks b as touched by net
	touched := make([]int, 0, 8)
	for e := 0; e < h.NumNets(); e++ {
		touched = touched[:0]
		for _, v := range h.NetPins(hypergraph.NetID(e)) {
			b := blk[v]
			if seen[b] != e+1 {
				seen[b] = e + 1
				touched = append(touched, b)
			}
		}
		if len(touched) >= 2 {
			cut++
			for _, b := range touched {
				cutInc[b]++
			}
		}
	}

	vd := verdict{K: k, Cut: cut}
	for b := 0; b < k; b++ {
		if size[b] > dev.SMax() {
			vd.Violations = append(vd.Violations, fmt.Sprintf("block %d size %d > S_MAX %d", b, size[b], dev.SMax()))
		}
		if t := cutInc[b] + pads[b]; t > dev.TMax() {
			vd.Violations = append(vd.Violations, fmt.Sprintf("block %d terminals %d > T_MAX %d", b, t, dev.TMax()))
		}
		if dev.AuxCap > 0 && aux[b] > dev.AuxCap {
			vd.Violations = append(vd.Violations, fmt.Sprintf("block %d aux %d > %d", b, aux[b], dev.AuxCap))
		}
		for r, rc := range dev.Resources {
			if res[b][r] > rc.Cap {
				vd.Violations = append(vd.Violations, fmt.Sprintf("block %d %s %d > %d", b, rc.Name, res[b][r], rc.Cap))
			}
		}
	}
	vd.Feasible = len(vd.Violations) == 0
	return vd, nil
}

// verify checks one result against its claim. It returns "" when the
// result is feasible and the checker agrees with every claimed value,
// otherwise why the operation counts as failed.
func verify(h *hypergraph.Hypergraph, dev device.Device, assign []int, c claim) string {
	vd, err := check(h, dev, assign)
	switch {
	case err != nil:
		return err.Error()
	case vd.K != c.K:
		return fmt.Sprintf("claimed K %d, checker counts %d", c.K, vd.K)
	case vd.Cut != c.Cut:
		return fmt.Sprintf("quality.Analyze cut %d, checker counts %d", c.Cut, vd.Cut)
	case vd.Feasible != c.Feasible:
		return fmt.Sprintf("claimed feasible=%v, checker finds %v %v", c.Feasible, vd.Feasible, vd.Violations)
	case !vd.Feasible:
		return fmt.Sprintf("infeasible result %v", vd.Violations)
	}
	return ""
}

// selfTest feeds the checker two corrupted copies of a result it has
// just accepted and reports an error unless both are rejected: one node
// of a shared block moved to a block of its own (K and terminals
// change), and every node piled into one block (size and K change).
// Both corruptions change K only when the result has at least two
// blocks, so a one-block result is skipped and a later result tests.
func (r *run) selfTest(h *hypergraph.Hypergraph, dev device.Device, assign []int, c claim) {
	if r.selfTested || c.K < 2 {
		return
	}
	members := map[int]int{}
	maxB := 0
	for _, b := range assign {
		members[b]++
		maxB = max(maxB, b)
	}
	moved := -1
	for v, b := range assign {
		if members[b] >= 2 {
			moved = v
			break
		}
	}
	if moved < 0 {
		return // every block is a single node: nothing to move out
	}
	r.selfTested = true
	fresh := append([]int(nil), assign...)
	fresh[moved] = maxB + 1
	if verify(h, dev, fresh, c) == "" {
		r.problem("checker self-test: a node moved to a new block was not caught")
	}
	piled := make([]int, len(assign))
	if verify(h, dev, piled, c) == "" {
		r.problem("checker self-test: all nodes in one block were not caught")
	}
}
