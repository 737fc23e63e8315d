package mlfpart

import (
	"context"
	"testing"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

func testDevice(t *testing.T) device.Device {
	t.Helper()
	dev, ok := device.ByName("XC3090")
	if !ok {
		t.Fatal("XC3090 missing from catalog")
	}
	return dev
}

// Below FlatThreshold mlfpart must be bit-identical to flat FPART: same
// assignment, same K, same cut.
func TestFlatDelegation(t *testing.T) {
	h := gen.Synthetic(500, 40, 7, true)
	dev := testDevice(t)
	mr, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatalf("mlfpart: %v", err)
	}
	fr, err := core.Partition(h, dev, core.Config{})
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	if mr.K != fr.K || mr.Feasible != fr.Feasible || mr.Partition.Cut() != fr.Partition.Cut() {
		t.Fatalf("flat delegation diverged: mlfpart (K=%d feas=%v cut=%d) vs fpart (K=%d feas=%v cut=%d)",
			mr.K, mr.Feasible, mr.Partition.Cut(), fr.K, fr.Feasible, fr.Partition.Cut())
	}
	for v := 0; v < h.NumNodes(); v++ {
		id := hypergraph.NodeID(v)
		if mr.Partition.Block(id) != fr.Partition.Block(id) {
			t.Fatalf("node %d: mlfpart block %d, fpart block %d", v, mr.Partition.Block(id), fr.Partition.Block(id))
		}
	}
	if mr.Levels != 0 {
		t.Fatalf("flat path reported %d levels", mr.Levels)
	}
}

// A forced V-cycle on a mid-size circuit must produce a valid, feasible
// partition with K in a sane band around the flat result.
func TestVCycleFeasibleQuality(t *testing.T) {
	h := gen.Synthetic(3000, 120, 11, true)
	dev := testDevice(t)
	mr, err := Partition(h, dev, Config{FlatThreshold: -1, CoarsestNodes: 256})
	if err != nil {
		t.Fatalf("mlfpart: %v", err)
	}
	if mr.Levels < 1 {
		t.Fatalf("V-cycle built no levels (n=%d)", h.NumNodes())
	}
	if err := mr.Partition.Validate(); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	if !mr.Feasible {
		t.Fatalf("V-cycle result infeasible (K=%d M=%d)", mr.K, mr.M)
	}
	if mr.K < mr.M {
		t.Fatalf("K=%d below lower bound M=%d", mr.K, mr.M)
	}
	fr, err := core.Partition(h, dev, core.Config{})
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	if fr.Feasible && mr.K > 2*fr.K {
		t.Fatalf("V-cycle K=%d more than double flat K=%d", mr.K, fr.K)
	}
}

// Cancellation must abort promptly from every phase entry point.
func TestCancelled(t *testing.T) {
	h := gen.Synthetic(2000, 80, 5, true)
	dev := testDevice(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PartitionCtx(ctx, h, dev, Config{FlatThreshold: -1}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// An interior node larger than the device can never be placed.
func TestOversizeNode(t *testing.T) {
	var b hypergraph.Builder
	a := b.AddNode("a", hypergraph.Interior, 10_000)
	c := b.AddNode("b", hypergraph.Interior, 1)
	b.AddNet("n", a, c)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(h, testDevice(t), Config{}); err == nil {
		t.Fatal("want oversize-node error")
	}
}

// Moving cells between blocks must never leave partition bookkeeping
// stale; run a V-cycle and validate the final state from scratch.
func TestValidateAfterRefine(t *testing.T) {
	h := gen.Synthetic(1500, 60, 9, true)
	mr, err := Partition(h, testDevice(t), Config{FlatThreshold: -1, CoarsestNodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = partition.NoBlock
}
