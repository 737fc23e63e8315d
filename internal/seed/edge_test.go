package seed

// Edge-case tests for the constructive seed machinery.

import (
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

func TestGrowFromMultiNodeInit(t *testing.T) {
	h, left, right := twoClusters(t, 6)
	dev := device.Device{Name: "d", DatasheetCells: 8, Pins: 20, Fill: 1.0}
	p := partition.New(h, dev)
	// Start from a 2-node nucleus on the left; growth stays on the left.
	init := []hypergraph.NodeID{left[0], left[1]}
	set := Grow(p, 0, dev, init)
	if len(set) < 2 {
		t.Fatalf("Grow returned %d nodes", len(set))
	}
	inSet := map[hypergraph.NodeID]bool{}
	size := 0
	for _, v := range set {
		inSet[v] = true
		size += h.Node(v).Size
	}
	if !inSet[left[0]] || !inSet[left[1]] {
		t.Error("Grow dropped the nucleus")
	}
	if size > dev.SMax() {
		t.Errorf("grown size %d > S_MAX", size)
	}
	rightIn := 0
	for _, v := range right {
		if inSet[v] {
			rightIn++
		}
	}
	if rightIn > 2 {
		t.Errorf("growth leaked %d nodes across the bridge", rightIn)
	}
}

func TestGrowPinBound(t *testing.T) {
	// Star center with 10 leaves, T_MAX=4: growth stops before the pin
	// budget is blown even though size allows everything.
	var b hypergraph.Builder
	center := b.AddInterior("c", 1)
	var leaves []hypergraph.NodeID
	for i := 0; i < 10; i++ {
		leaf := b.AddInterior("l", 1)
		leaves = append(leaves, leaf)
		b.AddNet("n", center, leaf)
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 20, Pins: 4, Fill: 1.0}
	p := partition.New(h, dev)
	set := Grow(p, 0, dev, []hypergraph.NodeID{leaves[0]})
	// Verify the final cluster is pin-feasible by probing via a block.
	blk := p.AddBlock()
	for _, v := range set {
		p.Move(v, blk)
	}
	if p.Terminals(blk) > dev.TMax() {
		t.Errorf("grown cluster has %d terminals > %d", p.Terminals(blk), dev.TMax())
	}
}

func TestBestSingleNodeRemainder(t *testing.T) {
	var b hypergraph.Builder
	v := b.AddInterior("v", 1)
	b.AddNet("n", v)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	p := partition.New(h, dev)
	if _, ok := Best(p, 0, dev, partition.DefaultCost(), 1); ok {
		t.Error("single-node remainder bipartitioned")
	}
}

func TestGreedyConeMergeAuxBound(t *testing.T) {
	// FF-heavy cells with an FF cap of 2: the grown block respects the cap.
	var b hypergraph.Builder
	var ids []hypergraph.NodeID
	for i := 0; i < 8; i++ {
		id := b.AddInterior("ff", 1)
		b.SetResource(id, "FF", 1)
		ids = append(ids, id)
	}
	for i := 0; i+1 < 8; i++ {
		b.AddNet("n", ids[i], ids[i+1])
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 10, Pins: 10, Fill: 1.0,
		Resources: []device.Resource{{Name: "FF", Cap: 2}}}
	p := partition.New(h, dev)
	set, ok := GreedyConeMerge(p, 0, dev)
	if !ok {
		t.Fatal("merge failed")
	}
	ff, col := 0, h.ResourceColumn("FF")
	for _, v := range set {
		ff += int(col[v])
	}
	if ff > 2 {
		t.Errorf("grown block carries %d FFs > cap 2", ff)
	}
}

func TestRatioCutPrefersSmallRatio(t *testing.T) {
	// Unequal clusters joined by a bridge: the sweep should cut at the
	// bridge, not mid-cluster.
	var b hypergraph.Builder
	var big, small []hypergraph.NodeID
	for i := 0; i < 10; i++ {
		big = append(big, b.AddInterior("b", 1))
	}
	for i := 0; i < 4; i++ {
		small = append(small, b.AddInterior("s", 1))
	}
	for i := 0; i+1 < 10; i++ {
		b.AddNet("be", big[i], big[i+1])
		if i+2 < 10 {
			b.AddNet("be2", big[i], big[i+2])
		}
	}
	for i := 0; i+1 < 4; i++ {
		b.AddNet("se", small[i], small[i+1])
	}
	b.AddNet("bridge", big[9], small[0])
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 12, Pins: 20, Fill: 1.0}
	p := partition.New(h, dev)
	set, ok := RatioCutSweep(p, 0, dev)
	if !ok {
		t.Fatal("sweep failed")
	}
	inSet := map[hypergraph.NodeID]bool{}
	for _, v := range set {
		inSet[v] = true
	}
	// The selected side must be cluster-pure.
	bigIn, smallIn := 0, 0
	for _, v := range big {
		if inSet[v] {
			bigIn++
		}
	}
	for _, v := range small {
		if inSet[v] {
			smallIn++
		}
	}
	if bigIn > 0 && smallIn > 0 && bigIn+smallIn < 13 {
		t.Errorf("sweep mixed clusters: big=%d small=%d", bigIn, smallIn)
	}
}
