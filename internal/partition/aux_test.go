package partition

// Tests for the flip-flop constraint of §2, which the paper handles "in a
// similar way as the size constraint": flip-flops are the "FF" resource
// column, capped by the device's FF resource axis.

import (
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

func auxCircuit(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	var b hypergraph.Builder
	v0 := b.AddInterior("lut", 1)
	ff1 := b.AddInterior("ff1", 1)
	ff2 := b.AddInterior("ff2", 1)
	b.SetResource(ff1, "FF", 1)
	b.SetResource(ff2, "FF", 2)
	b.AddNet("n", v0, ff1, ff2)
	return b.MustBuild()
}

// ffDevice is a 10-cell, 10-pin part whose only extra axis caps FF.
func ffDevice(ffCap int) device.Device {
	return device.Device{Name: "d", DatasheetCells: 10, Pins: 10, Fill: 1.0,
		Resources: []device.Resource{{Name: "FF", Cap: ffCap}}}
}

func TestAuxBookkeeping(t *testing.T) {
	h := auxCircuit(t)
	if h.TotalResource("FF") != 3 {
		t.Fatalf("TotalResource(FF) = %d, want 3", h.TotalResource("FF"))
	}
	p := New(h, ffDevice(2))
	if p.Res(0, 0) != 3 {
		t.Errorf("FF(0) = %d, want 3", p.Res(0, 0))
	}
	b1 := p.AddBlock()
	p.Move(2, b1) // ff2 carries FF 2
	if p.Res(0, 0) != 1 || p.Res(b1, 0) != 2 {
		t.Errorf("FF split = %d,%d want 1,2", p.Res(0, 0), p.Res(b1, 0))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAuxFeasibility(t *testing.T) {
	h := auxCircuit(t)
	p := New(h, ffDevice(2))
	// Block 0 holds FF 3 > cap 2: infeasible despite size/pins fitting.
	if p.Feasible(0) {
		t.Error("FF-overflowing block reported feasible")
	}
	// Without an FF axis the same block is fine.
	uncapped := ffDevice(2)
	uncapped.Resources = nil
	p2 := New(h, uncapped)
	if !p2.Feasible(0) {
		t.Error("uncapped device rejected the block")
	}
}

func TestAuxValidateDetectsCorruption(t *testing.T) {
	h := auxCircuit(t)
	p := New(h, ffDevice(10))
	p.blockRes[0]++
	if err := p.Validate(); err == nil {
		t.Error("Validate missed corrupted FF total")
	}
	p.blockRes[0]--
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAuxLowerBound(t *testing.T) {
	// 6 flip-flops on a device with FF cap 2: at least 3 devices even
	// though size and pins allow 1.
	var b hypergraph.Builder
	prev := hypergraph.NodeID(-1)
	for i := 0; i < 6; i++ {
		id := b.AddInterior("ff", 1)
		b.SetResource(id, "FF", 1)
		if prev >= 0 {
			b.AddNet("n", prev, id)
		}
		prev = id
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 100, Pins: 100, Fill: 1.0,
		Resources: []device.Resource{{Name: "FF", Cap: 2}}}
	if m := device.LowerBound(h, dev); m != 3 {
		t.Errorf("FF-dominated LowerBound = %d, want 3", m)
	}
}

func TestAuxSurvivesInduced(t *testing.T) {
	h := auxCircuit(t)
	sub, back := h.Induced([]hypergraph.NodeID{1, 2})
	col, subCol := h.ResourceColumn("FF"), sub.ResourceColumn("FF")
	for i, orig := range back {
		if subCol[i] != col[orig] {
			t.Errorf("Induced dropped FF of node %d", orig)
		}
	}
	if sub.TotalResource("FF") != 3 {
		t.Errorf("induced TotalResource(FF) = %d, want 3", sub.TotalResource("FF"))
	}
}

func TestSetAuxClampsNegative(t *testing.T) {
	var b hypergraph.Builder
	id := b.AddInterior("v", 1)
	b.SetResource(id, "FF", -5)
	h := b.MustBuild()
	if h.ResourceColumn("FF") != nil || h.TotalResource("FF") != 0 {
		t.Errorf("negative FF demand not dropped: total %d", h.TotalResource("FF"))
	}
}
