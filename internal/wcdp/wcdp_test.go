package wcdp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

func chainGraph(t testing.TB, n int) *hypergraph.Hypergraph {
	t.Helper()
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		b.AddInterior("v", 1)
	}
	for i := 0; i+1 < n; i++ {
		b.AddNet("e", hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	return b.MustBuild()
}

func TestOrderingCoversAllNodes(t *testing.T) {
	h := chainGraph(t, 20)
	order := maxAdjacencyOrder(h)
	if len(order) != 20 {
		t.Fatalf("order length %d", len(order))
	}
	seen := map[hypergraph.NodeID]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("node %d ordered twice", v)
		}
		seen[v] = true
	}
}

func TestOrderingFollowsChain(t *testing.T) {
	// On a path the max-adjacency order must be contiguous: each next node
	// adjacent to the prefix, so positions of neighbours differ by small
	// amounts — verify segments of the chain stay contiguous by checking
	// the order is a walk from some start.
	h := chainGraph(t, 12)
	order := maxAdjacencyOrder(h)
	pos := make([]int, 12)
	for i, v := range order {
		pos[v] = i
	}
	// Every chain edge should connect nodes at nearby order positions.
	far := 0
	for i := 0; i+1 < 12; i++ {
		d := pos[i] - pos[i+1]
		if d < 0 {
			d = -d
		}
		if d > 2 {
			far++
		}
	}
	if far > 1 {
		t.Errorf("%d chain edges stretched across the ordering", far)
	}
}

func TestDPCutsChainOptimally(t *testing.T) {
	// 30-cell chain, device of 10 cells / plenty of pins: exactly 3 blocks.
	h := chainGraph(t, 30)
	dev := device.Device{Name: "d", DatasheetCells: 10, Pins: 10, Fill: 1.0}
	r, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.K != 3 {
		t.Errorf("K=%d feasible=%v, want 3 feasible", r.K, r.Feasible)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	// Blocks must be contiguous segments: each block's cut contribution on
	// a chain is at most 2.
	for b := 0; b < r.Partition.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if r.Partition.Nodes(id) == 0 {
			continue
		}
		if tc := r.Partition.Terminals(id); tc > 2 {
			t.Errorf("block %d has %d terminals on a chain, want <= 2", b, tc)
		}
	}
}

func TestDPRespectsPinConstraint(t *testing.T) {
	// A star cannot be cut anywhere cheaply: center with 20 leaves, device
	// pins=3. Segments with the center inside but leaves outside blow T.
	var b hypergraph.Builder
	center := b.AddInterior("c", 1)
	for i := 0; i < 20; i++ {
		leaf := b.AddInterior("l", 1)
		b.AddNet("n", center, leaf)
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 30, Pins: 25, Fill: 1.0}
	r, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Whole circuit fits one device (21 cells, T=0).
	if r.K != 1 || !r.Feasible {
		t.Errorf("K=%d feasible=%v, want single block", r.K, r.Feasible)
	}
	// With pins=3 and size cap 12, every split strands leaves: K must grow
	// but every block must still be pin-feasible.
	tight := device.Device{Name: "t", DatasheetCells: 12, Pins: 21, Fill: 1.0}
	r2, err := Partition(h, tight, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Feasible {
		for bb := 0; bb < r2.Partition.NumBlocks(); bb++ {
			id := partition.BlockID(bb)
			if r2.Partition.Nodes(id) > 0 && !r2.Partition.Feasible(id) {
				t.Errorf("block %d infeasible in a feasible result", bb)
			}
		}
	}
}

func TestAuxInDP(t *testing.T) {
	var b hypergraph.Builder
	for i := 0; i < 12; i++ {
		id := b.AddInterior("ff", 1)
		b.SetResource(id, "FF", 1)
		if i > 0 {
			b.AddNet("n", hypergraph.NodeID(i-1), hypergraph.NodeID(i))
		}
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 50, Pins: 50, Fill: 1.0,
		Resources: []device.Resource{{Name: "FF", Cap: 4}}}
	r, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.K != 3 {
		t.Errorf("K=%d feasible=%v, want 3 (12 FFs / 4)", r.K, r.Feasible)
	}
}

func TestOnBenchmark(t *testing.T) {
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	r, err := Partition(h, device.XC3042, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("wcdp infeasible on s9234/XC3042")
	}
	// WCDP trails the FM-family methods; anything within 2x of M is sane.
	if r.K < r.M || r.K > 2*r.M+2 {
		t.Errorf("K=%d outside sane band around M=%d", r.K, r.M)
	}
}

func TestErrors(t *testing.T) {
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
	if _, err := Partition(chainGraph(t, 3), device.Device{Name: "bad"}, Config{}); err == nil {
		t.Error("bad device accepted")
	}
}

// Property: the DP result is always a valid partition, and when feasible
// every block meets the constraints and K >= M.
func TestQuickDPValid(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 6 + r.Intn(40)
		for i := 0; i < n; i++ {
			if r.Intn(9) == 0 {
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
		dev := device.Device{Name: "d", DatasheetCells: 5 + r.Intn(20), Pins: 6 + r.Intn(25), Fill: 1.0}
		res, err := Partition(h, dev, Config{})
		if err != nil {
			return true
		}
		if res.Partition.Validate() != nil {
			return false
		}
		if !res.Feasible {
			return true // DP may legitimately fail on hostile orderings
		}
		return res.K >= res.M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: segment terminal accounting in the DP matches the partition's
// bookkeeping — cross-check via the final assignment.
func TestQuickSegmentsMeetConstraints(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		n := 10 + r.Intn(30)
		var b hypergraph.Builder
		for i := 0; i < n; i++ {
			b.AddInterior("v", 1)
		}
		for e := 0; e < 2*n; e++ {
			b.AddNet("e", hypergraph.NodeID(r.Intn(n)), hypergraph.NodeID(r.Intn(n)), hypergraph.NodeID(r.Intn(n)))
		}
		h := b.MustBuild()
		dev := device.Device{Name: "d", DatasheetCells: 4 + r.Intn(10), Pins: 10 + r.Intn(20), Fill: 1.0}
		res, err := Partition(h, dev, Config{})
		if err != nil || !res.Feasible {
			return true
		}
		for bb := 0; bb < res.Partition.NumBlocks(); bb++ {
			id := partition.BlockID(bb)
			if res.Partition.Nodes(id) == 0 {
				continue
			}
			if !res.Partition.Feasible(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWCDPS9234(b *testing.B) {
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(h, device.XC3020, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
