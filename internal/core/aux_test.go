package core

// End-to-end tests of the secondary-resource (flip-flop) constraint from
// §2 of the paper, driven through the full FPART flow. Flip-flops are the
// "FF" resource column, capped by the device's FF axis.

import (
	"errors"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// ffCapped is a 100-cell, 100-pin XC3000-family part capping FF at ffCap.
func ffCapped(name string, ffCap int) device.Device {
	return device.Device{Name: name, Family: device.XC3000, DatasheetCells: 100, Pins: 100, Fill: 1.0,
		Resources: []device.Resource{{Name: "FF", Cap: ffCap}}}
}

// ffChain builds n unit cells in a chain, each carrying one flip-flop.
func ffChain(t *testing.T, n int) *hypergraph.Hypergraph {
	t.Helper()
	var b hypergraph.Builder
	prev := hypergraph.NodeID(-1)
	for i := 0; i < n; i++ {
		id := b.AddInterior("ff", 1)
		b.SetResource(id, "FF", 1)
		if prev >= 0 {
			b.AddNet("n", prev, id)
		}
		prev = id
	}
	return b.MustBuild()
}

func TestAuxConstraintForcesMoreDevices(t *testing.T) {
	h := ffChain(t, 24)
	// Size and pins would allow one device; 8 FFs per device force >= 3.
	dev := ffCapped("ffcap", 8)
	r, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("infeasible: K=%d M=%d", r.K, r.M)
	}
	if r.M != 3 {
		t.Fatalf("M = %d, want 3 (FF-dominated)", r.M)
	}
	if r.K < 3 {
		t.Errorf("K = %d below the FF bound", r.K)
	}
	p := r.Partition
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if p.Nodes(id) > 0 && p.Res(id, 0) > 8 {
			t.Errorf("block %d exceeds FF cap: %d > 8", b, p.Res(id, 0))
		}
	}
}

func TestAuxUnsplittableNode(t *testing.T) {
	var b hypergraph.Builder
	v := b.AddInterior("megaff", 1)
	b.SetResource(v, "FF", 10)
	w := b.AddInterior("w", 1)
	b.AddNet("n", v, w)
	h := b.MustBuild()
	_, err := Partition(h, ffCapped("d", 4), Default())
	if !errors.Is(err, ErrUnsplittable) {
		t.Errorf("err = %v, want ErrUnsplittable for FF-oversized node", err)
	}
}

func TestAuxUncappedDeviceIgnoresAux(t *testing.T) {
	h := ffChain(t, 24)
	dev := device.Device{Name: "d", Family: device.XC3000, DatasheetCells: 100, Pins: 100, Fill: 1.0}
	r, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 1 {
		t.Errorf("K = %d, want 1 when FF is unconstrained", r.K)
	}
}
