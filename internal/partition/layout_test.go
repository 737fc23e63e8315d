package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
)

// weightedGraph draws loadGraph's netlist with every fourth net repeated
// up to three times, then folds the repeats with MergeParallelNets, so
// some nets carry weight 2–4.
func weightedGraph(r *rand.Rand, n int) *hypergraph.Hypergraph {
	base := loadGraph(r, n)
	var b hypergraph.Builder
	for v := 0; v < base.NumNodes(); v++ {
		id := hypergraph.NodeID(v)
		if base.KindOf(id) == hypergraph.Pad {
			b.AddPad("p")
			continue
		}
		b.AddInterior("v", base.SizeOf(id))
		for _, res := range base.ResourceNames() {
			if d := base.ResourceColumn(res)[v]; d != 0 {
				b.SetResource(id, res, int(d))
			}
		}
	}
	for e := 0; e < base.NumNets(); e++ {
		pins := base.NetPins(hypergraph.NetID(e))
		copies := 1
		if e%4 == 0 {
			copies += 1 + r.Intn(3)
		}
		for c := 0; c < copies; c++ {
			b.AddNet("e", pins...)
		}
	}
	return b.MustBuild().MergeParallelNets()
}

// sameLayouts compares a dense-row and a slot partition after one step:
// every observable, both Validate results.
func sameLayouts(dense, slots *Partition) error {
	if err := samePartition(dense, slots); err != nil {
		return err
	}
	if err := dense.Validate(); err != nil {
		return fmt.Errorf("dense rows: %v", err)
	}
	if err := slots.Validate(); err != nil {
		return fmt.Errorf("slots: %v", err)
	}
	return nil
}

// TestSlotLayoutMatchesDenseRows is the differential guard for the slot
// layout: random netlists with pads and weighted nets, on a scalar and an
// R>1 device, are loaded into both layouts, which then take the same
// random sequence of Move, MoveTrace, AddBlock, Snapshot and Restore
// steps. After every step the two must agree on every pin count, span,
// block list, Touches and OtherBlock answer and NetDelta trace, and both
// must pass Validate. A Reset then returns the slot partition to dense
// rows.
func TestSlotLayoutMatchesDenseRows(t *testing.T) {
	devs := []device.Device{
		{Name: "tight", DatasheetCells: 6, Pins: 8, Fill: 1.0},
		{Name: "vector", DatasheetCells: 1000, Pins: 1000, Fill: 1.0, Resources: []device.Resource{
			{Name: "FF", Cap: 4}, {Name: "DSP", Cap: 1000}, {Name: "BRAM", Cap: 2}}},
	}
	r := rand.New(rand.NewSource(7))
	for _, dev := range devs {
		for gi, k := range []int{1, 2, 5, 63, 66} {
			h := weightedGraph(r, 60+r.Intn(60))
			name := fmt.Sprintf("%s/graph%d/k%d", dev.Name, gi, k)
			weighted := false
			for e := 0; e < h.NumNets(); e++ {
				weighted = weighted || h.NetWeight(hypergraph.NetID(e)) > 1
			}
			if !weighted {
				t.Fatalf("%s: no net of weight > 1", name)
			}
			blocks := make([]BlockID, h.NumNodes())
			for v := range blocks {
				blocks[v] = BlockID(r.Intn(k))
			}
			dense, slots := &Partition{}, &Partition{}
			if err := dense.load(h, dev, blocks, k, false); err != nil {
				t.Fatal(err)
			}
			if err := slots.load(h, dev, blocks, k, true); err != nil {
				t.Fatal(err)
			}
			if err := sameLayouts(dense, slots); err != nil {
				t.Fatalf("%s: after load: %v", name, err)
			}
			var snap Snapshot
			// Non-nil: a nil buffer records nothing.
			traceD, traceS := make([]NetDelta, 0, 8), make([]NetDelta, 0, 8)
			for step := 0; step < 150; step++ {
				v := hypergraph.NodeID(r.Intn(h.NumNodes()))
				to := BlockID(r.Intn(dense.NumBlocks()))
				var what string
				switch op := r.Intn(20); {
				case op == 0:
					what = "AddBlock"
					if a, b := dense.AddBlock(), slots.AddBlock(); a != b {
						t.Fatalf("%s step %d: AddBlock %d vs %d", name, step, a, b)
					}
				case op == 1:
					what = "Snapshot"
					snap = dense.SnapshotInto(snap)
				case op == 2 && snap.K() > 0:
					what = "Restore"
					dense.Restore(snap)
					slots.Restore(snap)
				case op < 10:
					what = fmt.Sprintf("Move(%d, %d)", v, to)
					dense.Move(v, to)
					slots.Move(v, to)
				default:
					what = fmt.Sprintf("MoveTrace(%d, %d)", v, to)
					traceD = dense.MoveTrace(v, to, traceD[:0])
					traceS = slots.MoveTrace(v, to, traceS[:0])
					if !slices.Equal(traceD, traceS) {
						t.Fatalf("%s step %d %s: trace %+v vs %+v", name, step, what, traceD, traceS)
					}
				}
				if err := sameLayouts(dense, slots); err != nil {
					t.Fatalf("%s step %d %s: %v", name, step, what, err)
				}
			}
			// Reset returns a slot partition to New's dense rows.
			slots.Reset(h, dev)
			if err := sameLayouts(New(h, dev), slots); err != nil || slots.sparse {
				t.Fatalf("%s: after Reset (slots=%v): %v", name, slots.sparse, err)
			}
		}
	}
}

// TestLoadSlotMemory bounds what Load allocates on a large partition: the
// 100k-cell Rent netlist at k = 88, the finest uncoarsening level of the
// rent-100k benchmark. Dense rows would take nets·k·4 = 54 MB there; the
// slots take 8 bytes a pin and the touched-block bitsets nets·k/8 bytes.
func TestLoadSlotMemory(t *testing.T) {
	const k = 88
	h := gen.Synthetic(100000, 500, 1, false)
	dev := device.Device{Name: "3000x800", DatasheetCells: 3000, Pins: 800, Fill: 1.0}
	blocks := make([]BlockID, h.NumNodes())
	for v := range blocks {
		blocks[v] = BlockID(v % k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := FromAssignment(h, dev, blocks, k)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !p.sparse {
		t.Errorf("Load chose dense rows for %d nets × %d blocks", h.NumNets(), k)
	}
	const bound = 16 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d nets, %d pins at k=%d: Load allocated %.1f MB", h.NumNets(), h.NumPins(), k, float64(got)/(1<<20))
	if got > bound {
		t.Errorf("Load allocated %.1f MB, want < %d MB", float64(got)/(1<<20), bound>>20)
	}
}
