package board

import (
	"fmt"
	"strings"
	"testing"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// fourBlocks builds a partition of 4 chained clusters of 4 cells, each in
// its own block: blocks 0-1, 1-2, 2-3 connected by one net each.
func fourBlocks(t *testing.T) *partition.Partition {
	t.Helper()
	var b hypergraph.Builder
	var all [][]hypergraph.NodeID
	for c := 0; c < 4; c++ {
		var set []hypergraph.NodeID
		for i := 0; i < 4; i++ {
			set = append(set, b.AddInterior("v", 1))
		}
		for i := 0; i+1 < 4; i++ {
			b.AddNet("in", set[i], set[i+1])
		}
		all = append(all, set)
	}
	for c := 0; c+1 < 4; c++ {
		b.AddNet("x", all[c][3], all[c+1][0])
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 5, Pins: 10, Fill: 1.0}
	p := partition.New(h, dev)
	for c := 1; c < 4; c++ {
		nb := p.AddBlock()
		for _, v := range all[c] {
			p.Move(v, nb)
		}
	}
	return p
}

func TestDistance(t *testing.T) {
	xb := Board{Slots: 4, Topology: Crossbar}
	if xb.distance(0, 3) != 1 || xb.distance(2, 2) != 0 {
		t.Error("crossbar distances wrong")
	}
	ch := Board{Slots: 4, Topology: Chain}
	if ch.distance(0, 3) != 3 || ch.distance(3, 1) != 2 {
		t.Error("chain distances wrong")
	}
	me := Board{Slots: 6, Topology: Mesh, Cols: 3}
	if me.distance(0, 5) != 3 { // (0,0) -> (2,1)
		t.Errorf("mesh distance = %d, want 3", me.distance(0, 5))
	}
}

func TestValidate(t *testing.T) {
	if (Board{Slots: 0}).Validate() == nil {
		t.Error("0 slots accepted")
	}
	if (Board{Slots: 4, Topology: Mesh}).Validate() == nil {
		t.Error("mesh without Cols accepted")
	}
	if (Board{Slots: 4, Topology: Chain}).Validate() != nil {
		t.Error("valid chain rejected")
	}
}

func TestPlaceChainKeepsNeighborsAdjacent(t *testing.T) {
	p := fourBlocks(t)
	pl, err := Place(p, Board{Slots: 4, Topology: Chain})
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.Evaluate(p)
	// The block chain placed on a slot chain: 3 inter nets, each 1 hop if
	// the placement is perfect. Allow 4 hops of slack for greedy placement.
	if rep.InterNets != 3 {
		t.Errorf("InterNets = %d, want 3", rep.InterNets)
	}
	if rep.TotalHops > 5 {
		t.Errorf("TotalHops = %d, want near 3 on a chain-of-chains", rep.TotalHops)
	}
	if !rep.Routable {
		t.Error("unlimited wires must be routable")
	}
}

func TestPlaceTooManyBlocks(t *testing.T) {
	p := fourBlocks(t)
	if _, err := Place(p, Board{Slots: 2, Topology: Chain}); err == nil {
		t.Error("4 blocks on 2 slots accepted")
	}
}

func TestCrossbarAlwaysRoutable(t *testing.T) {
	p := fourBlocks(t)
	pl, err := Place(p, Board{Slots: 4, Topology: Crossbar, WiresPerLink: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.Evaluate(p)
	if rep.TotalHops != rep.InterNets {
		t.Errorf("crossbar hops %d != nets %d", rep.TotalHops, rep.InterNets)
	}
}

func TestWireCapacityLimits(t *testing.T) {
	// Force all traffic through one chain link by placing on 2 slots.
	var b hypergraph.Builder
	var left, right []hypergraph.NodeID
	for i := 0; i < 3; i++ {
		left = append(left, b.AddInterior("l", 1))
		right = append(right, b.AddInterior("r", 1))
	}
	for i := 0; i < 3; i++ {
		b.AddNet("x", left[i], right[i]) // 3 cut nets
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 10, Fill: 1.0}
	p := partition.New(h, dev)
	nb := p.AddBlock()
	for _, v := range right {
		p.Move(v, nb)
	}
	pl, err := Place(p, Board{Slots: 2, Topology: Chain, WiresPerLink: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.Evaluate(p)
	if rep.MaxLinkLoad != 3 {
		t.Errorf("MaxLinkLoad = %d, want 3", rep.MaxLinkLoad)
	}
	if rep.Routable {
		t.Error("3 signals over a 2-wire link reported routable")
	}
	// With capacity 3 it routes.
	pl2, _ := Place(p, Board{Slots: 2, Topology: Chain, WiresPerLink: 3})
	if rep2 := pl2.Evaluate(p); !rep2.Routable {
		t.Error("3 signals over a 3-wire link reported unroutable")
	}
}

func TestMeshRouting(t *testing.T) {
	p := fourBlocks(t)
	pl, err := Place(p, Board{Slots: 4, Topology: Mesh, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.Evaluate(p)
	if rep.InterNets != 3 {
		t.Errorf("InterNets = %d, want 3", rep.InterNets)
	}
	if rep.TotalHops < 3 {
		t.Errorf("TotalHops = %d, want >= 3", rep.TotalHops)
	}
	if !rep.Routable {
		t.Error("unlimited mesh must route")
	}
}

func TestEndToEndWithFPART(t *testing.T) {
	// Partition a benchmark, then place it on a mesh emulation board.
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	r, err := core.Partition(h, device.XC3042, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	board := Board{Slots: 6, Topology: Mesh, Cols: 3, WiresPerLink: 200}
	pl, err := Place(r.Partition, board)
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.Evaluate(r.Partition)
	if rep.InterNets == 0 {
		t.Error("no inter-FPGA nets on a multi-device partition")
	}
	if !rep.Routable {
		t.Errorf("generous board unroutable: max link load %d", rep.MaxLinkLoad)
	}
	// The greedy placement must beat a worst-case bound: hops <= nets ×
	// board diameter.
	diameter := board.distance(0, board.Slots-1)
	if rep.TotalHops > rep.InterNets*diameter {
		t.Errorf("hops %d exceed diameter bound %d", rep.TotalHops, rep.InterNets*diameter)
	}
}

// TestMeshRaggedLastRow pins routing on a mesh whose Cols does not divide
// Slots: a 4-wide, 6-slot mesh has a ragged last row of width 2 (slots 4,
// 5). Routing from slot 4 (x=0,y=1) to slot 3 (x=3,y=0) X-first would walk
// the ragged row through phantom slots 5, 6, 7; the router must fall back
// to Y-first and every traversed link must join two real slots.
func TestMeshRaggedLastRow(t *testing.T) {
	b := Board{Slots: 6, Topology: Mesh, Cols: 4}
	pl := &Placement{Board: b}
	for _, tc := range []struct{ from, to int }{
		{4, 3}, // ragged source row, target column past ragged width
		{3, 4}, // reverse: X-first lands on (0,0) then descends — fine
		{5, 3}, // ragged source, 3 hops
		{4, 5}, // within the ragged row
	} {
		load := map[[2]int]int{}
		hops := pl.routePath(tc.from, tc.to, load)
		if want := b.distance(tc.from, tc.to); hops != want {
			t.Errorf("route %d->%d: hops = %d, want Manhattan %d", tc.from, tc.to, hops, want)
		}
		for link := range load {
			for _, s := range link {
				if s < 0 || s >= b.Slots {
					t.Errorf("route %d->%d traverses phantom slot %d (link %v)", tc.from, tc.to, s, link)
				}
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	good := []struct {
		spec string
		want Board
	}{
		{"crossbar:4", Board{Slots: 4, Topology: Crossbar}},
		{"chain:8", Board{Slots: 8, Topology: Chain}},
		{"chain:8:wires=16", Board{Slots: 8, Topology: Chain, WiresPerLink: 16}},
		{"mesh:4x4:wires=64", Board{Slots: 16, Topology: Mesh, Cols: 4, WiresPerLink: 64}},
		{"mesh:3x2", Board{Slots: 6, Topology: Mesh, Cols: 3}},
	}
	for _, tc := range good {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	bad := []string{
		"", "mesh", "torus:4", "mesh:4", "mesh:0x4", "mesh:4xfour",
		"chain:0", "chain:-2", "chain:4:wires=-1", "chain:4:fibers=9",
		"crossbar:4:wires=2",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

// TestParseSpecRejectsOverflowingMesh: COLS·ROWS past MaxInt must be an
// error, not a wrapped product that parses as a tiny board.
func TestParseSpecRejectsOverflowingMesh(t *testing.T) {
	for _, spec := range []string{
		"mesh:3x6148914691236517206",         // 3·R wraps to 2
		"mesh:2x4611686018427387904",         // 2·R wraps to MinInt
		"mesh:4294967296x4294967296:wires=8", // 2^64 wraps to 0
		"mesh:9223372036854775807x2",         // cols at MaxInt
	} {
		b, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want an overflow error", spec, b)
			continue
		}
		if !strings.Contains(err.Error(), spec) {
			t.Errorf("ParseSpec(%q) error %q does not name the spec", spec, err)
		}
	}
	// The largest product that fits is still a board.
	if b, err := ParseSpec(fmt.Sprintf("mesh:1x%d", MaxSlots)); err != nil || b.Slots != MaxSlots {
		t.Errorf("ParseSpec(mesh:1xMaxSlots) = %+v, %v", b, err)
	}
}

// TestParseSpecBoundsSlots: every topology rejects a slot count past
// MaxSlots, naming the spec, and accepts one at the bound.
func TestParseSpecBoundsSlots(t *testing.T) {
	for _, spec := range []string{
		"chain:1000000000000",
		fmt.Sprintf("chain:%d:wires=8", MaxSlots+1),
		fmt.Sprintf("crossbar:%d", MaxSlots+1),
		"crossbar:9223372036854775807",
		fmt.Sprintf("mesh:%dx2", MaxSlots/2+1),
		"mesh:1x9223372036854775807",
	} {
		b, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want a slot-bound error", spec, b)
			continue
		}
		if !strings.Contains(err.Error(), spec) {
			t.Errorf("ParseSpec(%q) error %q does not name the spec", spec, err)
		}
	}
	for _, spec := range []string{
		fmt.Sprintf("chain:%d", MaxSlots),
		fmt.Sprintf("crossbar:%d", MaxSlots),
		fmt.Sprintf("mesh:%dx2", MaxSlots/2),
	} {
		if b, err := ParseSpec(spec); err != nil || b.Slots != MaxSlots {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %d slots", spec, b, err, MaxSlots)
		}
	}
}

func TestRoute(t *testing.T) {
	p := fourBlocks(t)
	pl, rep, err := Route(p, Board{Slots: 4, Topology: Chain})
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil || rep.InterNets != 3 || !rep.Routable {
		t.Errorf("Route: report %+v", rep)
	}
	if _, _, err := Route(p, Board{Slots: 2, Topology: Chain}); err == nil {
		t.Error("Route accepted 4 blocks on 2 slots")
	}
}

func TestTopologyString(t *testing.T) {
	for _, tp := range []Topology{Crossbar, Chain, Mesh, Topology(9)} {
		if tp.String() == "" {
			t.Error("empty topology name")
		}
	}
}
