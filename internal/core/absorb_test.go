package core

// Focused tests for the endgame absorption pass and the repair safety net.

import (
	"bytes"
	"strings"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// fragmented builds a partition with two nearly-full blocks and one tiny
// fragment that fits into either.
func fragmented(t *testing.T) (*partition.Partition, partition.BlockID) {
	t.Helper()
	var b hypergraph.Builder
	var all []hypergraph.NodeID
	for i := 0; i < 22; i++ {
		all = append(all, b.AddInterior("v", 1))
	}
	for i := 0; i+1 < 22; i++ {
		b.AddNet("e", all[i], all[i+1])
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 12, Pins: 20, Fill: 1.0}
	p := partition.New(h, dev)
	b1 := p.AddBlock()
	b2 := p.AddBlock()
	for i := 10; i < 20; i++ {
		p.Move(all[i], b1)
	}
	for i := 20; i < 22; i++ {
		p.Move(all[i], b2) // the 2-cell fragment
	}
	return p, b2
}

func TestAbsorbSmallestDissolvesFragment(t *testing.T) {
	p, frag := fragmented(t)
	var st Stats
	if !absorbSmallest(p, new(partition.Snapshot), &st, nil) {
		t.Fatal("absorption failed on an absorbable fragment")
	}
	if p.Nodes(frag) != 0 {
		t.Errorf("fragment still holds %d nodes", p.Nodes(frag))
	}
	if p.Classify() != partition.FeasibleSolution {
		t.Error("absorption broke feasibility")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nothing else absorbable: blocks 0 and 1 are 10 and 12 cells; the
	// device caps at 12, so a second call must refuse and roll back.
	if absorbSmallest(p, new(partition.Snapshot), &st, nil) {
		t.Error("absorbed a block that cannot fit anywhere")
	}
	if st.Absorbed != 1 {
		t.Errorf("Absorbed = %d, want 1", st.Absorbed)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("failed absorption left damage: %v", err)
	}
}

func TestAbsorbRollsBackOnFailure(t *testing.T) {
	p, _ := fragmented(t)
	// Fill block 0 to capacity so the fragment can only go to block 1.
	snapshotCut := p.Cut()
	// Tighten: make device pins tiny so any move breaks feasibility.
	// (Rebuild with a 2-pin device.)
	var b hypergraph.Builder
	v0 := b.AddInterior("a", 6)
	v1 := b.AddInterior("b", 6)
	v2 := b.AddInterior("c", 1)
	b.AddNet("n1", v0, v2)
	b.AddNet("n2", v1, v2)
	h := b.MustBuild()
	dev := device.Device{Name: "tiny", DatasheetCells: 6, Pins: 2, Fill: 1.0}
	p2 := partition.New(h, dev)
	b1 := p2.AddBlock()
	b2 := p2.AddBlock()
	p2.Move(v1, b1)
	p2.Move(v2, b2)
	// v2 cannot join v0's or v1's block (size 6+1 > 6): absorption fails.
	var st Stats
	if absorbSmallest(p2, new(partition.Snapshot), &st, nil) {
		t.Error("absorbed into a size-saturated block")
	}
	if p2.Nodes(b2) != 1 {
		t.Error("rollback lost the fragment")
	}
	_ = snapshotCut
	if err := p2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDisableAbsorbKeepsFragments(t *testing.T) {
	// End-to-end: an instance where absorption saves a device.
	h := ringOfClusters(t, 3, 10, 3)
	dev := device.Device{Name: "d", DatasheetCells: 16, Pins: 30, Fill: 1.0}
	on, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.DisableAbsorb = true
	off, err := Partition(h, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.K > off.K {
		t.Errorf("absorption increased K: %d vs %d", on.K, off.K)
	}
}

func TestAbsorbTraceLine(t *testing.T) {
	p, _ := fragmented(t)
	var buf bytes.Buffer
	var st Stats
	em := obs.NewEmitter(obs.NewTextSink(&buf), "")
	if absorbSmallest(p, new(partition.Snapshot), &st, em) {
		if !strings.Contains(buf.String(), "absorbed") {
			t.Error("absorption did not trace")
		}
	}
}

func TestRepairShedsAuxViolations(t *testing.T) {
	var b hypergraph.Builder
	var ids []hypergraph.NodeID
	for i := 0; i < 6; i++ {
		id := b.AddInterior("ff", 1)
		b.SetResource(id, "FF", 1)
		ids = append(ids, id)
	}
	for i := 0; i+1 < 6; i++ {
		b.AddNet("n", ids[i], ids[i+1])
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 50, Pins: 50, Fill: 1.0,
		Resources: []device.Resource{{Name: "FF", Cap: 2}}}
	p := partition.New(h, dev)
	blk := p.AddBlock()
	for _, v := range ids[:5] {
		p.Move(v, blk) // 5 FFs > cap 2
	}
	var st Stats
	repairNonRemainder(p, 0, &st, nil)
	if !p.Feasible(blk) {
		t.Errorf("repair left block FF-infeasible: FF=%d", p.Res(blk, 0))
	}
}

func TestMaxBlocksCap(t *testing.T) {
	// An impossible instance (pins too tight) must terminate at the cap
	// with Feasible=false rather than loop.
	var b hypergraph.Builder
	center := b.AddInterior("c", 1)
	for i := 0; i < 30; i++ {
		leaf := b.AddInterior("l", 1)
		b.AddNet("n", center, leaf)
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 2, Fill: 1.0}
	cfg := Default()
	cfg.MaxBlocks = 6
	r, err := Partition(h, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible {
		t.Error("impossible instance reported feasible")
	}
	if r.Partition.NumBlocks() > 6 {
		t.Errorf("cap ignored: %d blocks", r.Partition.NumBlocks())
	}
}
