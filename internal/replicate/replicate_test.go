package replicate

import (
	"fmt"
	"strings"
	"testing"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/partition"
	"fpart/internal/techmap"
)

// mapBlif parses, maps, and lowers a BLIF string.
func mapBlif(t *testing.T, blif string) (*techmap.Mapped, *hypergraph.Hypergraph) {
	t.Helper()
	c, err := netlist.ReadBLIF(strings.NewReader(blif))
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
	return m, h
}

// broadcast builds the canonical replication win: one driver gate whose
// output feeds consumers in another block; replicating the driver removes
// the crossing.
const broadcast = `
.model bc
.inputs a b
.outputs z0 z1 z2 z3
.names a b s
11 1
.names s a z0
11 1
.names s b z1
11 1
.names s a z2
10 1
.names s b z3
01 1
.end
`

func TestDirectedTerminalsMatchPartitionWithoutReplicas(t *testing.T) {
	m, h := mapBlif(t, broadcast)
	dev := device.Device{Name: "d", Family: device.XC3000, DatasheetCells: 10, Pins: 20, Fill: 1.0}
	// Split CLBs arbitrarily in two blocks.
	p := partition.New(h, dev)
	b1 := p.AddBlock()
	for i := 0; i < h.NumNodes(); i += 2 {
		p.Move(hypergraph.NodeID(i), b1)
	}
	sigs, err := extractSignals(m, h)
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{h: h, p: p, dev: dev, signals: sigs,
		replicated: map[partition.BlockID]map[hypergraph.NodeID]bool{},
		extraSize:  map[partition.BlockID]int{}, extraRes: map[partition.BlockID][]int{},
		drives: map[hypergraph.NodeID][]int{}, inputsOf: map[hypergraph.NodeID][]int{}}
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		want := p.Terminals(id)
		got := e.blockTerminals(id)
		if got != want {
			t.Errorf("block %d: directed terminals %d, partition model %d", b, got, want)
		}
	}
}

func TestReduceBroadcastDriver(t *testing.T) {
	m, h := mapBlif(t, broadcast)
	dev := device.Device{Name: "d", Family: device.XC3000, DatasheetCells: 10, Pins: 20, Fill: 1.0}
	p := partition.New(h, dev)
	// Put the CLB containing the s-driver alone in block 0; consumers in
	// block 1. Find the driver CLB via CellsPerCLB.
	driverCLB := -1
	for ci, cells := range m.CellsPerCLB() {
		for _, c := range cells {
			if c.Output == "s" {
				driverCLB = ci
			}
		}
	}
	if driverCLB < 0 {
		t.Fatal("driver CLB not found")
	}
	b1 := p.AddBlock()
	for v := 0; v < m.NumCLBs(); v++ {
		if v != driverCLB {
			p.Move(hypergraph.NodeID(v), b1)
		}
	}
	// Pads: a,b with the driver, outputs with consumers.
	for v := m.NumCLBs(); v < h.NumNodes(); v++ {
		name := h.Node(hypergraph.NodeID(v)).Name
		if strings.HasPrefix(name, "po:") {
			p.Move(hypergraph.NodeID(v), b1)
		}
	}
	res, err := Reduce(m, h, p, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalReduction() <= 0 {
		t.Errorf("no terminal reduction: before=%v after=%v replicas=%v",
			res.TerminalsBefore, res.TerminalsAfter, res.Replicas)
	}
	if res.CopiesAdded == 0 {
		t.Error("no replicas added despite reduction")
	}
	if !res.Feasible {
		t.Error("replication broke feasibility")
	}
}

// ffBroadcast is broadcast with a registered driver: s comes out of a
// latch, and z3 is registered too, so both the driver CLB and the
// consumer side carry flip-flops.
const ffBroadcast = `
.model ffbc
.inputs a b clk
.outputs z0 z1 z2 z3
.names a b s0
11 1
.latch s0 s re clk 0
.names s a z0
11 1
.names s b z1
11 1
.names s a z2
10 1
.names s b t
01 1
.latch t z3 re clk 0
.end
`

// TestReduceRespectsFFHeadroom: a replica that would push the consumer
// block past its FF cap is refused, and the same pass with one more FF of
// headroom takes it.
func TestReduceRespectsFFHeadroom(t *testing.T) {
	m, h := mapBlif(t, ffBroadcast)
	driverCLB := -1
	for ci, cells := range m.CellsPerCLB() {
		for _, c := range cells {
			if c.Output == "s" {
				driverCLB = ci
			}
		}
	}
	if driverCLB < 0 {
		t.Fatal("driver CLB not found")
	}
	driverFF := int(h.ResourceColumn("FF")[driverCLB])
	consumerFF := h.TotalResource("FF") - driverFF
	if driverFF < 1 || consumerFF < 1 {
		t.Fatalf("setup: driver FF %d, consumer FF %d; want both >= 1", driverFF, consumerFF)
	}
	run := func(ffCap int) *Result {
		t.Helper()
		dev := device.Device{Name: "ff", Family: device.XC3000, DatasheetCells: 10, Pins: 20, Fill: 1.0,
			Resources: []device.Resource{{Name: "FF", Cap: ffCap}}}
		p := partition.New(h, dev)
		b1 := p.AddBlock()
		for v := 0; v < h.NumNodes(); v++ {
			id := hypergraph.NodeID(v)
			if (v < m.NumCLBs() && v != driverCLB) || strings.HasPrefix(h.Node(id).Name, "po:") {
				p.Move(id, b1)
			}
		}
		if !p.Feasible(0) || !p.Feasible(b1) {
			t.Fatalf("FF cap %d: setup blocks infeasible", ffCap)
		}
		res, err := Reduce(m, h, p, dev)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Errorf("FF cap %d: replication broke feasibility", ffCap)
		}
		return res
	}
	atCap := max(driverFF, consumerFF)
	if res := run(atCap); len(res.Replicas[1]) != 0 {
		t.Errorf("FF cap %d: replicated %v into a block holding %d FFs", atCap, res.Replicas[1], consumerFF)
	}
	if res := run(consumerFF + driverFF); len(res.Replicas[1]) == 0 {
		t.Errorf("FF cap %d: the driver replica was refused despite FF headroom", consumerFF+driverFF)
	}
}

func TestReduceRespectsSizeHeadroom(t *testing.T) {
	m, h := mapBlif(t, broadcast)
	// Device so tight no block has room for a replica.
	dev := device.Device{Name: "tight", Family: device.XC3000, DatasheetCells: 3, Pins: 20, Fill: 1.0}
	r, err := core.Partition(h, dev, core.Default())
	if err != nil || !r.Feasible {
		t.Skipf("setup infeasible: %v", err)
	}
	// Shrink headroom: blocks at S_MAX cannot take copies.
	full := true
	for b := 0; b < r.Partition.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if r.Partition.Nodes(id) > 0 && r.Partition.Size(id) < dev.SMax() {
			full = false
		}
	}
	res, err := Reduce(m, h, r.Partition, dev)
	if err != nil {
		t.Fatal(err)
	}
	if full && res.CopiesAdded > 0 {
		t.Error("replicated into full blocks")
	}
	if !res.Feasible {
		t.Error("reduction broke feasibility")
	}
}

func TestReduceEndToEndCounter(t *testing.T) {
	// A ripple counter mapped and partitioned, then replicated: the carry
	// chain crosses blocks and earlier stages are replication candidates.
	var sb strings.Builder
	sb.WriteString(".model ctr\n.inputs en clk\n.outputs")
	n := 24
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
	m, h := mapBlif(t, sb.String())
	dev := device.Device{Name: "d", Family: device.XC3000, DatasheetCells: 12, Pins: 24, Fill: 1.0}
	r, err := core.Partition(h, dev, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("partition infeasible")
	}
	res, err := Reduce(m, h, r.Partition, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalReduction() < 0 {
		t.Errorf("replication increased terminals: %+v", res)
	}
	if !res.Feasible {
		t.Error("replication broke feasibility")
	}
	t.Logf("counter: reduction=%d copies=%d", res.TotalReduction(), res.CopiesAdded)
}

func TestExtractSignalsLayoutMismatch(t *testing.T) {
	m, _ := mapBlif(t, broadcast)
	var b hypergraph.Builder
	b.AddInterior("lonely", 1)
	wrong := b.MustBuild()
	if _, err := extractSignals(m, wrong); err == nil {
		t.Error("mismatched hypergraph accepted")
	}
}
