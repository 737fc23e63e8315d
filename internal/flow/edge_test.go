package flow

// Edge-case tests for the flow network and FBB machinery.

import (
	"context"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
	"fpart/internal/seed"
)

func TestGraphAccessors(t *testing.T) {
	g := NewGraph(3, 2)
	a := g.AddEdge(0, 1, 5)
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if g.Cap(a) != 5 || g.Flow(a) != 0 {
		t.Errorf("fresh edge cap/flow = %d/%d", g.Cap(a), g.Flow(a))
	}
	g.AddEdge(1, 2, 3)
	g.MaxFlow(0, 2)
	if g.Flow(a) != 3 {
		t.Errorf("flow through first edge = %d, want 3", g.Flow(a))
	}
	if g.Cap(a) != 2 {
		t.Errorf("residual = %d, want 2", g.Cap(a))
	}
}

func TestSelfFlowIsZero(t *testing.T) {
	g := NewGraph(2, 1)
	g.AddEdge(0, 1, 4)
	if f := g.MaxFlow(0, 0); f != 0 {
		t.Errorf("s==t flow = %d", f)
	}
}

func TestMergeIdempotent(t *testing.T) {
	var b hypergraph.Builder
	v0 := b.AddInterior("a", 1)
	v1 := b.AddInterior("b", 1)
	b.AddNet("n", v0, v1)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	p := partition.New(h, dev)
	nw := remainderNetwork(p, 0, p.NodesIn(0))
	before := len(nw.g.to)
	nw.merge(0, true)
	nw.merge(0, true)                           // second call must not add another edge
	if got := len(nw.g.to) - before; got != 2 { // one edge = 2 residual arcs
		t.Errorf("duplicate merge added arcs: %d", got)
	}
	nw.merge(1, false)
	nw.merge(1, false)
	if got := len(nw.g.to) - before; got != 4 {
		t.Errorf("arcs after both merges = %d, want 4", got)
	}
}

func TestNetworkExcludesCutNets(t *testing.T) {
	// Nets already spanning another block carry no bridging edge.
	var b hypergraph.Builder
	v0 := b.AddInterior("a", 1)
	v1 := b.AddInterior("b", 1)
	out := b.AddInterior("c", 1)
	b.AddNet("cut", v0, out)
	b.AddNet("internal", v0, v1)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	p := partition.New(h, dev)
	carved := p.AddBlock()
	p.Move(out, carved)
	nw := remainderNetwork(p, 0, p.NodesIn(0))
	// Remainder has 2 nodes; only "internal" is bridged: total flow nodes
	// = 2 + 2 aux + s + t = 6.
	if nw.g.NumNodes() != 6 {
		t.Errorf("network nodes = %d, want 6", nw.g.NumNodes())
	}
}

func TestEvaluateCountsStubsAndPads(t *testing.T) {
	var b hypergraph.Builder
	v0 := b.AddInterior("a", 1)
	v1 := b.AddInterior("b", 1)
	pd := b.AddPad("p")
	ext := b.AddInterior("x", 1)
	b.AddNet("stub", v0, ext) // will be cut after carving ext
	b.AddNet("padnet", pd, v0)
	b.AddNet("pair", v0, v1)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	p := partition.New(h, dev)
	carved := p.AddBlock()
	p.Move(ext, carved)
	// Evaluate the side {v0, pd} against devices one unit either side of
	// its size and terminal count.
	side := []hypergraph.NodeID{v0, pd}
	fits := func(cells, pins int) bool {
		return seed.Fits(p, 0, device.Device{Name: "d", DatasheetCells: cells, Pins: pins, Fill: 1.0}, side)
	}
	// size = 1: the pad is size-free.
	if !fits(1, 4) {
		t.Error("size > 1, want 1 (pad is size-free)")
	}
	// stub crosses (ext in another block) = 1; pair crosses (v1 in
	// remainder outside side) = 1; pad IOB = 1; padnet fully inside = 0.
	if !fits(4, 3) || fits(4, 2) {
		t.Errorf("term != 3: fits T_MAX 3 = %v, T_MAX 2 = %v", fits(4, 3), fits(4, 2))
	}
}

func TestFBBPeelTinyRemainder(t *testing.T) {
	var b hypergraph.Builder
	b.AddInterior("only", 1)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	p := partition.New(h, dev)
	if _, ok, _ := fbbPeelCtx(context.Background(), p, 0, dev, 0.5); ok {
		t.Error("single-node remainder peeled")
	}
}

func TestFarthestInRemainderDisconnected(t *testing.T) {
	var b hypergraph.Builder
	a := b.AddInterior("a", 1)
	c := b.AddInterior("b", 1)
	d := b.AddInterior("c", 1)
	b.AddNet("n", a, c)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	p := partition.New(h, dev)
	if far := seed.Farthest(p, 0, a); far != d {
		t.Errorf("farthest = %d, want the disconnected node %d", far, d)
	}
}
