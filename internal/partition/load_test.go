package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// moveBuilt is the reference construction Load replaces: New, k−1
// AddBlock calls, then one Move per node out of the all-in-block-0 state.
func moveBuilt(h *hypergraph.Hypergraph, dev device.Device, blocks []BlockID, k int) *Partition {
	p := New(h, dev)
	for i := 1; i < k; i++ {
		p.AddBlock()
	}
	for v, b := range blocks {
		p.Move(hypergraph.NodeID(v), b)
	}
	return p
}

// loadGraph draws a random netlist of n nodes with pads, aux demands, FF
// and DSP resource columns, and nets of 1–6 pins.
func loadGraph(r *rand.Rand, n int) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		if r.Intn(6) == 0 {
			b.AddPad("p")
			continue
		}
		id := b.AddInterior("v", 1+r.Intn(3))
		if r.Intn(2) == 0 {
			b.SetAux(id, 1+r.Intn(2))
		}
		if r.Intn(2) == 0 {
			b.SetResource(id, "FF", 1+r.Intn(3))
		}
		if r.Intn(4) == 0 {
			b.SetResource(id, "DSP", 1)
		}
	}
	for e := 0; e < 2*n; e++ {
		pins := make([]hypergraph.NodeID, 1+r.Intn(6))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		b.AddNet("e", pins...)
	}
	return b.MustBuild()
}

// samePartition compares every observable of a and b and describes the
// first difference.
func samePartition(a, b *Partition) error {
	if a.NumBlocks() != b.NumBlocks() {
		return fmt.Errorf("k %d vs %d", a.NumBlocks(), b.NumBlocks())
	}
	k := a.NumBlocks()
	h := a.Hypergraph()
	for v := 0; v < h.NumNodes(); v++ {
		if a.Block(hypergraph.NodeID(v)) != b.Block(hypergraph.NodeID(v)) {
			return fmt.Errorf("node %d: block %d vs %d", v, a.Block(hypergraph.NodeID(v)), b.Block(hypergraph.NodeID(v)))
		}
	}
	var ba, bb []BlockID
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		for blk := 0; blk < k; blk++ {
			if ca, cb := a.PinCount(ne, BlockID(blk)), b.PinCount(ne, BlockID(blk)); ca != cb {
				return fmt.Errorf("net %d block %d: pin count %d vs %d", e, blk, ca, cb)
			}
		}
		if a.Span(ne) != b.Span(ne) {
			return fmt.Errorf("net %d: span %d vs %d", e, a.Span(ne), b.Span(ne))
		}
		ba, bb = a.Blocks(ne, ba[:0]), b.Blocks(ne, bb[:0])
		if !slices.Equal(ba, bb) {
			return fmt.Errorf("net %d: blocks %v vs %v", e, ba, bb)
		}
	}
	if a.Cut() != b.Cut() {
		return fmt.Errorf("cut %d vs %d", a.Cut(), b.Cut())
	}
	if a.CountFeasible() != b.CountFeasible() {
		return fmt.Errorf("feasible %d vs %d", a.CountFeasible(), b.CountFeasible())
	}
	if a.TerminalSum() != b.TerminalSum() {
		return fmt.Errorf("terminal sum %d vs %d", a.TerminalSum(), b.TerminalSum())
	}
	if a.Classify() != b.Classify() {
		return fmt.Errorf("class %v vs %v", a.Classify(), b.Classify())
	}
	cp := DefaultCost()
	m := max(1, k/2)
	if da, db := a.Distance(cp, NoBlock, 0), b.Distance(cp, NoBlock, 0); da != db {
		return fmt.Errorf("distance %v vs %v", da, db)
	}
	if da, db := a.Distance(cp, 0, m), b.Distance(cp, 0, m); da != db {
		return fmt.Errorf("distance with remainder %v vs %v", da, db)
	}
	if a.NumRes() != b.NumRes() {
		return fmt.Errorf("resource axes %d vs %d", a.NumRes(), b.NumRes())
	}
	for blk := 0; blk < k; blk++ {
		id := BlockID(blk)
		if a.Size(id) != b.Size(id) || a.Aux(id) != b.Aux(id) || a.Terminals(id) != b.Terminals(id) ||
			a.Pads(id) != b.Pads(id) || a.Nodes(id) != b.Nodes(id) || a.Feasible(id) != b.Feasible(id) {
			return fmt.Errorf("block %d: S/aux/T/pads/nodes/feasible %d/%d/%d/%d/%d/%v vs %d/%d/%d/%d/%d/%v", blk,
				a.Size(id), a.Aux(id), a.Terminals(id), a.Pads(id), a.Nodes(id), a.Feasible(id),
				b.Size(id), b.Aux(id), b.Terminals(id), b.Pads(id), b.Nodes(id), b.Feasible(id))
		}
		for r := 0; r < a.NumRes(); r++ {
			if a.Res(id, r) != b.Res(id, r) {
				return fmt.Errorf("block %d resource %d: %d vs %d", blk, r, a.Res(id, r), b.Res(id, r))
			}
		}
	}
	return nil
}

// TestLoadMatchesMoveBuilt is the differential guard for Load: on random
// netlists with pads, across scalar, aux-capped and R>1 devices (binding
// and non-binding caps) and block counts that straddle bitset word
// boundaries, one reused arena loaded from larger graphs and k down to
// smaller ones must equal the Move-built partition in every observable,
// before and after further identical moves and an AddBlock past its exact
// stride.
func TestLoadMatchesMoveBuilt(t *testing.T) {
	devs := []device.Device{
		{Name: "tight", DatasheetCells: 6, Pins: 8, Fill: 1.0},
		{Name: "loose", DatasheetCells: 1000, Pins: 1000, Fill: 1.0},
		{Name: "aux", DatasheetCells: 1000, Pins: 1000, Fill: 1.0, AuxCap: 3},
		{Name: "vector", DatasheetCells: 1000, Pins: 1000, Fill: 1.0, Resources: []device.Resource{
			{Name: "FF", Cap: 4}, {Name: "DSP", Cap: 1000}, {Name: "BRAM", Cap: 2}}},
	}
	ks := []int{130, 65, 64, 63, 2, 1}
	r := rand.New(rand.NewSource(1))
	graphs := []*hypergraph.Hypergraph{loadGraph(r, 400), loadGraph(r, 260), loadGraph(r, 90)}
	for _, dev := range devs {
		arena := &Partition{}
		for gi, h := range graphs {
			for _, k := range ks {
				name := fmt.Sprintf("%s/graph%d/k%d", dev.Name, gi, k)
				blocks := make([]BlockID, h.NumNodes())
				for v := range blocks {
					blocks[v] = BlockID(r.Intn(k))
				}
				if err := arena.Load(h, dev, blocks, k); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := moveBuilt(h, dev, blocks, k)
				if err := samePartition(arena, ref); err != nil {
					t.Fatalf("%s: after Load: %v", name, err)
				}
				if err := arena.Validate(); err != nil {
					t.Fatalf("%s: Validate after Load: %v", name, err)
				}
				if arena.Moves() != 0 {
					t.Fatalf("%s: Moves() = %d after Load, want 0", name, arena.Moves())
				}
				for i := 0; i < 50; i++ {
					v, to := hypergraph.NodeID(r.Intn(h.NumNodes())), BlockID(r.Intn(k))
					arena.Move(v, to)
					ref.Move(v, to)
				}
				if err := samePartition(arena, ref); err != nil {
					t.Fatalf("%s: after moves: %v", name, err)
				}
				// The arena's stride is exactly k, so this AddBlock restrides.
				nb := arena.AddBlock()
				ref.AddBlock()
				for i := 0; i < 20; i++ {
					v := hypergraph.NodeID(r.Intn(h.NumNodes()))
					arena.Move(v, nb)
					ref.Move(v, nb)
				}
				if err := samePartition(arena, ref); err != nil {
					t.Fatalf("%s: after AddBlock: %v", name, err)
				}
				if err := arena.Validate(); err != nil {
					t.Fatalf("%s: Validate after AddBlock: %v", name, err)
				}
			}
		}
	}
}

// TestLoadRejectsBadInputUntouched checks that a failing Load reports the
// same errors FromAssignment does and leaves a loaded arena as it was.
func TestLoadRejectsBadInputUntouched(t *testing.T) {
	h := grid(t)
	blocks := make([]BlockID, h.NumNodes())
	blocks[2] = 1
	p := &Partition{}
	if err := p.Load(h, testDev, blocks, 2); err != nil {
		t.Fatal(err)
	}
	ref := moveBuilt(h, testDev, blocks, 2)
	bad := slices.Clone(blocks)
	bad[0] = 5
	for _, tc := range []struct {
		blocks []BlockID
		k      int
	}{{blocks[:1], 2}, {blocks, 0}, {bad, 2}} {
		if err := p.Load(h, testDev, tc.blocks, tc.k); err == nil {
			t.Errorf("Load accepted %v at k=%d", tc.blocks, tc.k)
		}
		if _, err := FromAssignment(h, testDev, tc.blocks, tc.k); err == nil {
			t.Errorf("FromAssignment accepted %v at k=%d", tc.blocks, tc.k)
		}
	}
	if err := samePartition(p, ref); err != nil {
		t.Fatalf("failed Load changed the partition: %v", err)
	}
}
