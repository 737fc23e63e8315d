package hypergraph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds a path hypergraph v0-v1-...-v(n-1) with 2-pin nets.
func chain(t testing.TB, n int) *Hypergraph {
	t.Helper()
	var b Builder
	for i := 0; i < n; i++ {
		b.AddInterior("v", 1)
	}
	for i := 0; i+1 < n; i++ {
		b.AddNet("e", NodeID(i), NodeID(i+1))
	}
	h, err := b.Build()
	if err != nil {
		t.Fatalf("chain(%d): %v", n, err)
	}
	return h
}

func TestBuilderBasics(t *testing.T) {
	var b Builder
	a := b.AddInterior("a", 3)
	p := b.AddPad("p")
	c := b.AddInterior("c", 0) // promoted to size 1
	b.AddNet("n1", a, p, c)
	b.AddNet("n2", a, c, c) // duplicate pin collapsed
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 3 || h.NumInterior() != 2 || h.NumPads() != 1 {
		t.Errorf("counts: nodes=%d interior=%d pads=%d", h.NumNodes(), h.NumInterior(), h.NumPads())
	}
	if h.TotalSize() != 4 {
		t.Errorf("TotalSize = %d, want 4 (pad size excluded, zero promoted)", h.TotalSize())
	}
	if got := len(h.NetPins(1)); got != 2 {
		t.Errorf("net n2 pins = %d, want 2 after dedup", got)
	}
	if h.SizeOf(p) != 0 {
		t.Errorf("pad size = %d, want 0", h.SizeOf(p))
	}
	if h.Degree(a) != 2 {
		t.Errorf("Degree(a) = %d, want 2", h.Degree(a))
	}
}

func TestBuildRejectsEmptyNet(t *testing.T) {
	var b Builder
	b.AddInterior("a", 1)
	b.AddNet("empty")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a zero-pin net")
	}
}

func TestBuildRejectsDanglingPin(t *testing.T) {
	var b Builder
	b.AddInterior("a", 1)
	b.AddNet("bad", 42)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), `net 0 ("bad") references unknown node 42`) {
		t.Fatalf("Build on a dangling pin: err = %v, want it to name net 0 and node 42", err)
	}
}

// TestBuildRejectsInt32Overflow pins that sizes and demands past the
// int32 columns fail the build, naming the node, instead of wrapping: a
// size of 1<<31 used to read back as -2147483648 and a demand of
// 1<<32+5 as 5.
func TestBuildRejectsInt32Overflow(t *testing.T) {
	var b Builder
	a := b.AddInterior("a", 1<<31)
	b.AddPad("p")
	b.AddNet("n", a, 1)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), `node 0 ("a") size 2147483648`) {
		t.Errorf("size 1<<31: err = %v, want it to name node 0 (\"a\") and the size", err)
	}

	var c Builder
	c.AddInterior("ok", 1)
	big := c.AddInterior("c", math.MaxInt32)
	c.SetResource(big, "DSP", 1<<32+5)
	_, err = c.Build()
	if err == nil || !strings.Contains(err.Error(), `node 1 ("c") demands 4294967301 DSP`) {
		t.Errorf("DSP demand 1<<32+5: err = %v, want it to name node 1, the demand and the resource", err)
	}

	// The int32 maximum itself still fits on both axes.
	c = Builder{}
	v := c.AddInterior("c", math.MaxInt32)
	c.SetResource(v, "DSP", math.MaxInt32)
	h, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.SizeOf(v) != math.MaxInt32 || h.TotalResource("DSP") != math.MaxInt32 {
		t.Errorf("SizeOf = %d, DSP total = %d, want %d for both", h.SizeOf(v), h.TotalResource("DSP"), math.MaxInt32)
	}
}

func TestSinglePinNetAllowed(t *testing.T) {
	var b Builder
	a := b.AddInterior("a", 1)
	b.AddNet("n", a)
	if _, err := b.Build(); err != nil {
		t.Fatalf("single-pin net rejected: %v", err)
	}
}

func TestIncidenceIsConsistent(t *testing.T) {
	h := chain(t, 5)
	// Every pin relation must appear in both directions.
	for ei := 0; ei < h.NumNets(); ei++ {
		for _, v := range h.NetPins(NetID(ei)) {
			found := false
			for _, e := range h.NodeNets(v) {
				if e == NetID(ei) {
					found = true
				}
			}
			if !found {
				t.Fatalf("net %d lists node %d, node does not list net", ei, v)
			}
		}
	}
}

func TestBFSDistancesOnChain(t *testing.T) {
	h := chain(t, 6)
	dist := h.BFSDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4, 5} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if far := h.FarthestFrom(0); far != 5 {
		t.Errorf("FarthestFrom(0) = %d, want 5", far)
	}
}

func TestBFSDisconnected(t *testing.T) {
	var b Builder
	a := b.AddInterior("a", 1)
	c := b.AddInterior("b", 1)
	d := b.AddInterior("c", 2)
	b.AddNet("n", a, c)
	h := b.MustBuild()
	dist := h.BFSDistances(a)
	if dist[d] != -1 {
		t.Errorf("disconnected node distance = %d, want -1", dist[d])
	}
	if far := h.FarthestFrom(a); far != d {
		t.Errorf("FarthestFrom should prefer unreachable interior node, got %d want %d", far, d)
	}
}

func TestComponentsOrdering(t *testing.T) {
	var b Builder
	// Component 1: two nodes, total size 2.
	a := b.AddInterior("a", 1)
	c := b.AddInterior("b", 1)
	b.AddNet("n1", a, c)
	// Component 2: one node, size 5 (bigger total size => listed first).
	b.AddInterior("big", 5)
	h := b.MustBuild()
	comps := h.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if h.NodeName(comps[0][0]) != "big" {
		t.Errorf("largest-size component should be first, got %q", h.NodeName(comps[0][0]))
	}
}

func TestInducedSubgraph(t *testing.T) {
	var b Builder
	n := make([]NodeID, 6)
	for i := range n {
		n[i] = b.AddInterior("v", i+1)
	}
	p := b.AddPad("p")
	b.AddNet("in", n[0], n[1], n[2]) // fully inside the kept set
	b.AddNet("cut", n[0], n[5])      // only one pin inside: dropped
	b.AddNet("half", n[1], n[2], n[4], p)
	h := b.MustBuild()

	sub, back := h.Induced([]NodeID{n[0], n[1], n[2], p})
	if sub.NumNodes() != 4 || sub.NumPads() != 1 {
		t.Fatalf("induced nodes=%d pads=%d, want 4,1", sub.NumNodes(), sub.NumPads())
	}
	if sub.TotalSize() != 1+2+3 {
		t.Errorf("induced size = %d, want 6", sub.TotalSize())
	}
	// "in" survives with 3 pins, "half" shrinks to 3 pins (n1,n2,p), "cut" dropped.
	if sub.NumNets() != 2 {
		t.Fatalf("induced nets = %d, want 2", sub.NumNets())
	}
	for newID, origID := range back {
		if h.SizeOf(origID) != sub.SizeOf(NodeID(newID)) {
			t.Errorf("back-mapping broke sizes at %d", newID)
		}
	}
}

func TestComputeStats(t *testing.T) {
	var b Builder
	a := b.AddInterior("a", 2)
	c := b.AddInterior("b", 3)
	p := b.AddPad("p")
	b.AddNet("n1", a, c)
	b.AddNet("n2", a, c, p)
	h := b.MustBuild()
	s := h.ComputeStats()
	if s.Nodes != 3 || s.Interior != 2 || s.Pads != 1 || s.Nets != 2 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.TotalSize != 5 {
		t.Errorf("TotalSize = %d, want 5", s.TotalSize)
	}
	if s.MaxNetDegree != 3 || s.MaxNodeDegree != 2 {
		t.Errorf("degrees wrong: %+v", s)
	}
	if s.AvgNetDegree != 2.5 {
		t.Errorf("AvgNetDegree = %v, want 2.5", s.AvgNetDegree)
	}
	if s.Components != 1 {
		t.Errorf("Components = %d, want 1", s.Components)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

// randomGraph builds a random connected-ish hypergraph for property tests.
func randomGraph(r *rand.Rand, nNodes, nNets int) *Hypergraph {
	var b Builder
	for i := 0; i < nNodes; i++ {
		if r.Intn(8) == 0 {
			b.AddPad("p")
		} else {
			b.AddInterior("v", 1+r.Intn(4))
		}
	}
	for e := 0; e < nNets; e++ {
		deg := 2 + r.Intn(4)
		pins := make([]NodeID, deg)
		for i := range pins {
			pins[i] = NodeID(r.Intn(nNodes))
		}
		b.AddNet("e", pins...)
	}
	return b.MustBuild()
}

// Property: pin/incidence relations are a perfect bidirectional matching and
// totals are internally consistent, for arbitrary random graphs.
func TestQuickIncidenceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		h := randomGraph(r, n, 1+r.Intn(60))
		pinRefs := 0
		for ei := 0; ei < h.NumNets(); ei++ {
			pinRefs += len(h.NetPins(NetID(ei)))
		}
		nodeRefs, size, pads := 0, 0, 0
		for i := 0; i < h.NumNodes(); i++ {
			nodeRefs += len(h.NodeNets(NodeID(i)))
			if h.KindOf(NodeID(i)) == Pad {
				pads++
			} else {
				size += h.SizeOf(NodeID(i))
			}
		}
		return pinRefs == nodeRefs && size == h.TotalSize() && pads == h.NumPads()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances change by at most 1 across any net (triangle-ish
// inequality on the net adjacency relation).
func TestQuickBFSLipschitz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		h := randomGraph(r, n, 1+r.Intn(50))
		dist := h.BFSDistances(0)
		for ei := 0; ei < h.NumNets(); ei++ {
			pins := h.NetPins(NetID(ei))
			for _, u := range pins {
				for _, v := range pins {
					du, dv := dist[u], dist[v]
					if du == -1 || dv == -1 {
						if du != dv { // one reachable, one not, sharing a net: impossible
							return false
						}
						continue
					}
					if du-dv > 1 || dv-du > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: components partition the node set.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		h := randomGraph(r, n, r.Intn(40))
		seen := make(map[NodeID]int)
		for _, comp := range h.Components() {
			for _, v := range comp {
				seen[v]++
			}
		}
		if len(seen) != h.NumNodes() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNodeKindString(t *testing.T) {
	if Interior.String() != "interior" || Pad.String() != "pad" {
		t.Error("NodeKind.String wrong")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestHypergraphString(t *testing.T) {
	h := chain(t, 3)
	if h.String() == "" {
		t.Error("String empty")
	}
}

func BenchmarkBuild10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		randomGraph(r, 10000, 13000)
	}
}
