package flow

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

func TestMaxFlowClassic(t *testing.T) {
	// Classic 6-node example; max flow s(0)->t(5) = 23.
	g := NewGraph(6, 10)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if f := g.MaxFlow(0, 5); f != 23 {
		t.Errorf("max flow = %d, want 23", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(4, 2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	if f := g.MaxFlow(0, 3); f != 0 {
		t.Errorf("flow across disconnect = %d, want 0", f)
	}
}

func TestMaxFlowIncremental(t *testing.T) {
	// Adding edges after a MaxFlow call and re-running continues from the
	// existing flow (the FBB merge pattern).
	g := NewGraph(4, 4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 3, 3)
	if f := g.MaxFlow(0, 3); f != 3 {
		t.Fatalf("first flow = %d, want 3", f)
	}
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	if f := g.MaxFlow(0, 3); f != 2 {
		t.Errorf("incremental flow = %d, want 2 additional", f)
	}
}

func TestMinCutSource(t *testing.T) {
	// s -1-> a -9-> t : cut is the s->a edge; source side = {s}.
	g := NewGraph(3, 2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 9)
	g.MaxFlow(0, 2)
	mark := make([]bool, 3)
	g.MinCutSource(0, mark)
	if !mark[0] || mark[1] || mark[2] {
		t.Errorf("source side = %v, want {0}", mark)
	}
}

// Property: max flow equals the capacity across any (source-side, rest)
// min-cut computed from the residual graph.
func TestQuickMaxFlowMinCut(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(10)
		g := NewGraph(n, 3*n)
		type edge struct{ u, v, c int32 }
		var edges []edge
		for i := 0; i < 3*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v {
				continue
			}
			c := int32(1 + r.Intn(9))
			g.AddEdge(u, v, c)
			edges = append(edges, edge{u, v, c})
		}
		s, t := int32(0), int32(n-1)
		flow := g.MaxFlow(s, t)
		mark := make([]bool, n)
		g.MinCutSource(s, mark)
		if mark[t] && flow > 0 {
			return false // t reachable => flow not maximal
		}
		var cutCap int64
		for _, e := range edges {
			if mark[e.u] && !mark[e.v] {
				cutCap += int64(e.c)
			}
		}
		return flow == cutCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// twoClusters builds the canonical bridge instance.
func twoClusters(t testing.TB, n int) *hypergraph.Hypergraph {
	t.Helper()
	var b hypergraph.Builder
	mk := func() []hypergraph.NodeID {
		var set []hypergraph.NodeID
		for i := 0; i < n; i++ {
			set = append(set, b.AddInterior("v", 1))
		}
		for i := 0; i+1 < n; i++ {
			b.AddNet("in", set[i], set[i+1])
			if i+2 < n {
				b.AddNet("in2", set[i], set[i+2])
			}
		}
		return set
	}
	l := mk()
	rset := mk()
	b.AddNet("bridge", l[n-1], rset[0])
	return b.MustBuild()
}

func TestFBBPeelFindsCluster(t *testing.T) {
	h := twoClusters(t, 8)
	dev := device.Device{Name: "d", DatasheetCells: 9, Pins: 10, Fill: 1.0}
	p := partition.New(h, dev)
	set, ok, err := fbbPeelCtx(context.Background(), p, 0, dev, 0.2)
	if err != nil || !ok {
		t.Fatal("fbbPeelCtx failed")
	}
	size := 0
	for _, v := range set {
		size += h.SizeOf(v)
	}
	if size == 0 || size > dev.SMax() {
		t.Fatalf("peeled size %d outside (0,%d]", size, dev.SMax())
	}
	// The peel should respect the bridge: verify the block's pin count is
	// tiny (a min-cut block, not a random scoop).
	nb := p.AddBlock()
	for _, v := range set {
		p.Move(v, nb)
	}
	if p.Terminals(nb) > 2 {
		t.Errorf("peeled block has %d terminals, want <= 2 (bridge cut)", p.Terminals(nb))
	}
}

func TestFBBPeelRespectsPinConstraint(t *testing.T) {
	// A star: center connected to 20 leaves by separate nets. Any block
	// containing the center plus some leaves has pins = leaves outside.
	var b hypergraph.Builder
	center := b.AddInterior("c", 1)
	for i := 0; i < 20; i++ {
		leaf := b.AddInterior("l", 1)
		b.AddNet("n", center, leaf)
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 10, Pins: 12, Fill: 1.0}
	p := partition.New(h, dev)
	set, ok, err := fbbPeelCtx(context.Background(), p, 0, dev, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("no pin-feasible block on the star; acceptable")
	}
	nb := p.AddBlock()
	for _, v := range set {
		p.Move(v, nb)
	}
	if !dev.Fits(p.Size(nb), p.Terminals(nb)) {
		t.Errorf("peeled block infeasible: S=%d T=%d", p.Size(nb), p.Terminals(nb))
	}
}

func TestMultiwayPartition(t *testing.T) {
	var b hypergraph.Builder
	sets := make([][]hypergraph.NodeID, 4)
	for ci := 0; ci < 4; ci++ {
		for i := 0; i < 10; i++ {
			sets[ci] = append(sets[ci], b.AddInterior("v", 1))
		}
		for i := 0; i+1 < 10; i++ {
			b.AddNet("in", sets[ci][i], sets[ci][i+1])
			if i+2 < 10 {
				b.AddNet("in2", sets[ci][i], sets[ci][i+2])
			}
		}
	}
	for ci := 0; ci < 4; ci++ {
		b.AddNet("bridge", sets[ci][9], sets[(ci+1)%4][0])
	}
	for i := 0; i < 6; i++ {
		pd := b.AddPad("p")
		b.AddNet("pe", pd, sets[i%4][0])
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	r, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("flow partition infeasible: K=%d M=%d", r.K, r.M)
	}
	if r.K < r.M || r.K > 6 {
		t.Errorf("K = %d outside [M=%d, 6]", r.K, r.M)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiwayErrors(t *testing.T) {
	var b hypergraph.Builder
	if _, err := Partition(b.MustBuild(), device.XC3020, Config{}); err == nil {
		t.Error("empty circuit accepted")
	}
	var b2 hypergraph.Builder
	v := b2.AddInterior("huge", 999)
	w := b2.AddInterior("w", 1)
	b2.AddNet("n", v, w)
	if _, err := Partition(b2.MustBuild(), device.XC3020, Config{}); err == nil {
		t.Error("oversized node accepted")
	}
	if _, err := Partition(twoClusters(t, 3), device.Device{Name: "bad"}, Config{}); err == nil {
		t.Error("bad device accepted")
	}
}

// A pad-only remainder has no interior node to grow from; the fallback
// carve must still honour T_MAX instead of scooping every pad into one
// block.
func TestPadOnlyRemainderIsPinAware(t *testing.T) {
	var b hypergraph.Builder
	pads := make([]hypergraph.NodeID, 10)
	for i := range pads {
		pads[i] = b.AddPad("p")
	}
	b.AddNet("bus", pads...)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	r, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.M != 3 {
		t.Fatalf("M = %d, want 3", r.M)
	}
	if !r.Feasible || r.K < r.M {
		t.Errorf("K = %d feasible = %v, want a feasible K >= M = %d", r.K, r.Feasible, r.M)
	}
	for blk := 0; blk < r.Partition.NumBlocks(); blk++ {
		if term := r.Partition.Terminals(partition.BlockID(blk)); term > dev.TMax() {
			t.Errorf("block %d has %d terminals > T_MAX %d", blk, term, dev.TMax())
		}
	}
}

// Property: the multiway driver terminates with a structurally valid
// partition on random graphs and never reports K < M when feasible.
func TestQuickMultiwayValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b hypergraph.Builder
		n := 8 + r.Intn(40)
		for i := 0; i < n; i++ {
			if r.Intn(10) == 0 {
				b.AddPad("p")
			} else {
				b.AddInterior("v", 1)
			}
		}
		for e := 0; e < n+r.Intn(n); e++ {
			d := 2 + r.Intn(3)
			pins := make([]hypergraph.NodeID, d)
			for i := range pins {
				pins[i] = hypergraph.NodeID(r.Intn(n))
			}
			b.AddNet("e", pins...)
		}
		h := b.MustBuild()
		dev := device.Device{Name: "d", DatasheetCells: 6 + r.Intn(20), Pins: 8 + r.Intn(25), Fill: 1.0}
		res, err := Partition(h, dev, Config{})
		if err != nil {
			return true
		}
		if res.Partition.Validate() != nil {
			return false
		}
		return !res.Feasible || res.K >= res.M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDinic(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		const n = 500
		g := NewGraph(n, 2000)
		for e := 0; e < 2000; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				g.AddEdge(u, v, int32(1+r.Intn(8)))
			}
		}
		g.MaxFlow(0, n-1)
	}
}
