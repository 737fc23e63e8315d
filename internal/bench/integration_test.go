package bench

// End-to-end integration tests across module boundaries: netlist parsing →
// technology mapping → partitioning, serialization round trips feeding the
// partitioners, and cross-method consistency.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/netlist"
	"fpart/internal/partition"
	"fpart/internal/techmap"
)

// counterBlif generates a synthetic BLIF ripple counter with n bits: n
// LUT+FF pairs chained by carry logic.
func counterBlif(n int) string {
	var sb strings.Builder
	sb.WriteString(".model counter\n.inputs en clk\n.outputs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " q%d", i)
	}
	sb.WriteString("\n")
	carry := "en"
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ".names %s q%d d%d\n10 1\n01 1\n", carry, i, i)
		fmt.Fprintf(&sb, ".latch d%d q%d re clk 0\n", i, i)
		if i+1 < n {
			fmt.Fprintf(&sb, ".names %s q%d c%d\n11 1\n", carry, i, i)
			carry = fmt.Sprintf("c%d", i)
		}
	}
	sb.WriteString(".end\n")
	return sb.String()
}

func TestBlifToPartitionPipeline(t *testing.T) {
	c, err := netlist.ReadBLIF(strings.NewReader(counterBlif(48)))
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []techmap.Arch{techmap.XC2000Arch, techmap.XC3000Arch} {
		m, err := techmap.Map(c, arch)
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		h, err := m.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		dev := device.Device{Name: "d", Family: device.XC3000, DatasheetCells: 20, Pins: 30, Fill: 1.0}
		r, err := core.Partition(h, dev, core.Default())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			t.Errorf("%s: pipeline produced infeasible result (K=%d M=%d)", arch.Name, r.K, r.M)
		}
		if err := r.Partition.Validate(); err != nil {
			t.Fatal(err)
		}
		// Flip-flops must have propagated through the mapper as the FF column.
		if h.TotalResource("FF") != 48 {
			t.Errorf("%s: mapped circuit carries %d FFs, want 48", arch.Name, h.TotalResource("FF"))
		}
	}
}

func TestBlifFFCapConstrainsPipeline(t *testing.T) {
	c, err := netlist.ReadBLIF(strings.NewReader(counterBlif(32)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := techmap.Map(c, techmap.XC3000Arch)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	// Size/pins generous; 8 FFs per device force >= 4 devices.
	dev := device.Device{Name: "ffbound", Family: device.XC3000, DatasheetCells: 500, Pins: 200, Fill: 1.0,
		Resources: []device.Resource{{Name: "FF", Cap: 8}}}
	r, err := core.Partition(h, dev, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.M != 4 {
		t.Fatalf("M = %d, want 4 (32 FFs / 8)", r.M)
	}
	if !r.Feasible || r.K < 4 {
		t.Errorf("K=%d feasible=%v, want >= 4 feasible", r.K, r.Feasible)
	}
	for b := 0; b < r.Partition.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if r.Partition.Nodes(id) > 0 && r.Partition.Res(id, 0) > 8 {
			t.Errorf("block %d holds %d FFs > cap", b, r.Partition.Res(id, 0))
		}
	}
}

func TestSerializationPreservesPartitioningResult(t *testing.T) {
	// gen → PHG → parse → partition must equal direct partitioning (PHG
	// preserves the full structure, and FPART is deterministic).
	spec, _ := gen.ByName("c3540")
	h := gen.Generate(spec, device.XC3000)
	direct, err := core.Partition(h, device.XC3042, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WritePHG(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := netlist.ReadPHG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip, err := core.Partition(h2, device.XC3042, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	if direct.K != roundTrip.K {
		t.Errorf("K diverged across PHG round trip: %d vs %d", direct.K, roundTrip.K)
	}
	if direct.Partition.Cut() != roundTrip.Partition.Cut() {
		t.Errorf("cut diverged: %d vs %d", direct.Partition.Cut(), roundTrip.Partition.Cut())
	}
}

func TestHgrRoundTripPartition(t *testing.T) {
	spec, _ := gen.ByName("c3540")
	h := gen.Generate(spec, device.XC3000)
	var buf bytes.Buffer
	if err := netlist.WriteHgr(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := netlist.ReadHgr(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumPads() != h.NumPads() || h2.TotalSize() != h.TotalSize() {
		t.Fatalf("hgr round trip lost structure: %v vs %v", h2, h)
	}
	r, err := core.Partition(h2, device.XC3090, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.K != 1 {
		t.Errorf("c3540/XC3090 after hgr round trip: K=%d feasible=%v, want 1", r.K, r.Feasible)
	}
}

func TestAllMethodsAgreeOnFeasibility(t *testing.T) {
	// Every implemented method must find a feasible solution with K >= M
	// on a mid-size benchmark, and their Ks must be within a sane band of
	// each other.
	ks := map[Method]int{}
	for _, m := range []Method{FPART, KwayX, FlowMW, Multilevel} {
		out, err := Run("s5378", device.XC3042, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !out.Feasible {
			t.Errorf("%v infeasible", m)
		}
		if out.K < out.M {
			t.Errorf("%v: K=%d < M=%d", m, out.K, out.M)
		}
		ks[m] = out.K
	}
	if ks[FPART] > ks[KwayX] || ks[FPART] > ks[FlowMW] || ks[FPART] > ks[Multilevel]+1 {
		t.Errorf("FPART should not lose to the baselines: %v", ks)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run("s9234", device.XC3020, FPART)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("s9234", device.XC3020, FPART)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Errorf("nondeterministic: %d vs %d", a.K, b.K)
	}
}
