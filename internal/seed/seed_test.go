package seed

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

var testDev = device.Device{Name: "T", DatasheetCells: 6, Pins: 8, Fill: 1.0}

// twoClusters builds a circuit of two densely connected clusters of n nodes
// each, joined by a single bridge net — the canonical easy bipartition.
func twoClusters(t testing.TB, n int) (*hypergraph.Hypergraph, []hypergraph.NodeID, []hypergraph.NodeID) {
	t.Helper()
	var b hypergraph.Builder
	var left, right []hypergraph.NodeID
	for i := 0; i < n; i++ {
		left = append(left, b.AddInterior("l", 1))
	}
	for i := 0; i < n; i++ {
		right = append(right, b.AddInterior("r", 1))
	}
	for i := 0; i+1 < n; i++ {
		b.AddNet("le", left[i], left[i+1])
		b.AddNet("re", right[i], right[i+1])
		if i+2 < n {
			b.AddNet("le2", left[i], left[i+2])
			b.AddNet("re2", right[i], right[i+2])
		}
	}
	b.AddNet("bridge", left[n-1], right[0])
	return b.MustBuild(), left, right
}

func TestTrackerProbeMatchesAdd(t *testing.T) {
	h, left, _ := twoClusters(t, 5)
	p := partition.New(h, testDev)
	tr := newTracker(p, 0)
	for _, v := range left {
		ps, pt := tr.Probe(v)
		tr.Add(v)
		if tr.size != ps || tr.term != pt {
			t.Fatalf("Probe(%d) = (%d,%d) but Add produced (%d,%d)", v, ps, pt, tr.size, tr.term)
		}
	}
}

func TestTrackerCountsExternalNets(t *testing.T) {
	// A net from the remainder to an already-carved block must count as a
	// terminal of any cluster containing its remainder pin.
	var b hypergraph.Builder
	v0 := b.AddInterior("v0", 1)
	v1 := b.AddInterior("v1", 1)
	out := b.AddInterior("out", 1)
	b.AddNet("ext", v0, out)
	b.AddNet("int", v0, v1)
	h := b.MustBuild()
	p := partition.New(h, testDev)
	carved := p.AddBlock()
	p.Move(out, carved)

	tr := newTracker(p, 0)
	tr.Add(v0)
	// Cluster {v0}: net "ext" goes to the carved block (terminal), net
	// "int" goes to v1 still in the remainder (terminal) -> T = 2.
	if tr.term != 2 {
		t.Errorf("term = %d, want 2", tr.term)
	}
	tr.Add(v1)
	// Cluster {v0,v1}: "int" fully inside -> only "ext" remains.
	if tr.term != 1 {
		t.Errorf("term = %d, want 1", tr.term)
	}
}

func TestTrackerPads(t *testing.T) {
	var b hypergraph.Builder
	v := b.AddInterior("v", 2)
	pd := b.AddPad("p")
	b.AddNet("n", v, pd)
	h := b.MustBuild()
	p := partition.New(h, testDev)
	tr := newTracker(p, 0)
	tr.Add(pd)
	if tr.term != 2 { // pad itself + net to v still outside cluster
		t.Errorf("term = %d, want 2", tr.term)
	}
	if tr.size != 0 {
		t.Errorf("size = %d, want 0 (pads are size-free)", tr.size)
	}
	tr.Add(v)
	if tr.term != 1 { // net internal now; pad IOB remains
		t.Errorf("term = %d, want 1", tr.term)
	}
}

func TestSeedsPicksBiggestAndFarthest(t *testing.T) {
	var b hypergraph.Builder
	v0 := b.AddInterior("v0", 1)
	big := b.AddInterior("big", 9)
	v2 := b.AddInterior("v2", 1)
	far := b.AddInterior("far", 1)
	b.AddNet("e1", big, v0)
	b.AddNet("e2", v0, v2)
	b.AddNet("e3", v2, far)
	h := b.MustBuild()
	p := partition.New(h, testDev)
	s1, s2, ok := seeds(p, 0)
	if !ok {
		t.Fatal("seeds failed")
	}
	if s1 != big {
		t.Errorf("s1 = %d, want biggest node %d", s1, big)
	}
	if s2 != far {
		t.Errorf("s2 = %d, want farthest node %d", s2, far)
	}
}

func TestSeedsTooSmall(t *testing.T) {
	var b hypergraph.Builder
	v := b.AddInterior("v", 1)
	b.AddNet("n", v)
	p := partition.New(b.MustBuild(), testDev)
	if _, _, ok := seeds(p, 0); ok {
		t.Error("seeds should fail on single-node remainder")
	}
}

func TestGreedyConeMergeSplitsClusters(t *testing.T) {
	h, left, right := twoClusters(t, 5) // 10 cells, device fits 6
	p := partition.New(h, testDev)
	set, ok := GreedyConeMerge(p, 0, testDev)
	if !ok {
		t.Fatal("GreedyConeMerge failed")
	}
	if len(set) == 0 || len(set) > 6 {
		t.Fatalf("block size %d outside (0,6]", len(set))
	}
	// The returned block should be dominated by one cluster: count sides.
	inSet := map[hypergraph.NodeID]bool{}
	for _, v := range set {
		inSet[v] = true
	}
	l, r := 0, 0
	for _, v := range left {
		if inSet[v] {
			l++
		}
	}
	for _, v := range right {
		if inSet[v] {
			r++
		}
	}
	if l > 0 && r > 0 && l+r >= 5 {
		t.Errorf("greedy merge mixed clusters badly: left=%d right=%d", l, r)
	}
}

func TestGreedyConeMergeRespectsSMax(t *testing.T) {
	h, _, _ := twoClusters(t, 8)
	p := partition.New(h, testDev) // S_MAX = 6
	set, ok := GreedyConeMerge(p, 0, testDev)
	if !ok {
		t.Fatal("failed")
	}
	size := 0
	for _, v := range set {
		size += h.SizeOf(v)
	}
	if size > testDev.SMax() {
		t.Errorf("block size %d exceeds S_MAX %d", size, testDev.SMax())
	}
}

func TestRatioCutSweepFindsBridge(t *testing.T) {
	h, left, right := twoClusters(t, 5)
	dev := device.Device{Name: "T", DatasheetCells: 8, Pins: 8, Fill: 1.0}
	p := partition.New(h, dev)
	set, ok := RatioCutSweep(p, 0, dev)
	if !ok {
		t.Fatal("RatioCutSweep failed")
	}
	inSet := map[hypergraph.NodeID]bool{}
	for _, v := range set {
		inSet[v] = true
	}
	l, r := 0, 0
	for _, v := range left {
		if inSet[v] {
			l++
		}
	}
	for _, v := range right {
		if inSet[v] {
			r++
		}
	}
	// The min-ratio prefix should be exactly one cluster.
	if !(l == 5 && r == 0) && !(l == 0 && r == 5) {
		t.Errorf("ratio cut did not isolate a cluster: left=%d right=%d", l, r)
	}
}

func TestRatioCutFeasibleSideRequired(t *testing.T) {
	// Device so small nothing fits: no valid prefix.
	h, _, _ := twoClusters(t, 5)
	tiny := device.Device{Name: "tiny", DatasheetCells: 1, Pins: 1, Fill: 1.0}
	p := partition.New(h, tiny)
	if _, ok := RatioCutSweep(p, 0, tiny); ok {
		t.Error("RatioCutSweep should fail when no prefix is feasible")
	}
}

func TestBestCarvesFeasibleBlock(t *testing.T) {
	h, _, _ := twoClusters(t, 6) // 12 cells, device 6
	p := partition.New(h, testDev)
	m := device.LowerBound(h, testDev)
	nb, ok := Best(p, 0, testDev, partition.DefaultCost(), m)
	if !ok {
		t.Fatal("Best failed")
	}
	if p.NumBlocks() != 2 {
		t.Fatalf("k = %d, want 2", p.NumBlocks())
	}
	if p.Size(nb) == 0 {
		t.Error("carved block is empty")
	}
	if p.Size(nb) > testDev.SMax() {
		t.Errorf("carved block size %d > S_MAX", p.Size(nb))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBestOnDisconnectedRemainder(t *testing.T) {
	var b hypergraph.Builder
	for c := 0; c < 3; c++ {
		v0 := b.AddInterior("a", 2)
		v1 := b.AddInterior("b", 2)
		b.AddNet("n", v0, v1)
	}
	h := b.MustBuild()
	p := partition.New(h, testDev)
	nb, ok := Best(p, 0, testDev, partition.DefaultCost(), 2)
	if !ok {
		t.Fatal("Best failed on disconnected remainder")
	}
	if p.Size(nb) == 0 || p.Size(nb) > testDev.SMax() {
		t.Errorf("block size %d invalid", p.Size(nb))
	}
}

// Property: on random graphs, Best always carves a nonempty block within
// S_MAX that leaves the partition bookkeeping valid.
func TestQuickBestInvariants(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 6 + r.Intn(40)
		for i := 0; i < n; i++ {
			if r.Intn(10) == 0 {
				b.AddPad("p")
			} else {
				b.AddInterior("v", 1+r.Intn(2))
			}
		}
		for e := 0; e < n+r.Intn(2*n); e++ {
			d := 2 + r.Intn(3)
			pins := make([]hypergraph.NodeID, d)
			for i := range pins {
				pins[i] = hypergraph.NodeID(r.Intn(n))
			}
			b.AddNet("e", pins...)
		}
		h := b.MustBuild()
		dev := device.Device{Name: "d", DatasheetCells: 4 + r.Intn(20), Pins: 4 + r.Intn(20), Fill: 1.0}
		p := partition.New(h, dev)
		nb, ok := Best(p, 0, dev, partition.DefaultCost(), device.LowerBound(h, dev))
		if !ok {
			return true // degenerate inputs may legitimately fail
		}
		if p.Size(nb) > dev.SMax() {
			return false
		}
		if p.Nodes(nb) == 0 {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBestOn500(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	var bld hypergraph.Builder
	const n = 500
	for i := 0; i < n; i++ {
		bld.AddInterior("v", 1)
	}
	for e := 0; e < 800; e++ {
		bld.AddNet("e", hypergraph.NodeID(r.Intn(n)), hypergraph.NodeID(r.Intn(n)), hypergraph.NodeID(r.Intn(n)))
	}
	h := bld.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 100, Pins: 200, Fill: 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.New(h, dev)
		Best(p, 0, dev, partition.DefaultCost(), device.LowerBound(h, dev))
	}
}
