package multilevel

import (
	"context"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

func TestClusterOrderIsPermutation(t *testing.T) {
	h := ring(t, 4, 12, 8)
	order := ClusterOrder(h)
	if len(order) != h.NumNodes() {
		t.Fatalf("order covers %d of %d nodes", len(order), h.NumNodes())
	}
	seen := make([]bool, h.NumNodes())
	for _, v := range order {
		if seen[v] {
			t.Fatalf("node %d ordered twice", v)
		}
		seen[v] = true
	}
}

func TestClusterOrderPadsNextToAnchors(t *testing.T) {
	h := ring(t, 3, 8, 6)
	order := ClusterOrder(h)
	pos := make([]int, h.NumNodes())
	for i, v := range order {
		pos[v] = i
	}
	for _, p := range h.PadIDs() {
		// The pad's anchor is its first interior neighbour.
		var anchor hypergraph.NodeID = -1
		for _, e := range h.NodeNets(p) {
			for _, u := range h.NetPins(e) {
				if h.KindOf(u) == hypergraph.Interior {
					anchor = u
					break
				}
			}
			if anchor >= 0 {
				break
			}
		}
		if anchor < 0 {
			continue
		}
		d := pos[p] - pos[anchor]
		if d < 0 {
			d = -d
		}
		// Pads sharing an anchor queue up behind it; a handful of pads per
		// anchor keeps the distance tiny.
		if d > 6 {
			t.Errorf("pad %d sits %d slots from its anchor", p, d)
		}
	}
}

func TestClusterOrderHasLowCutWidth(t *testing.T) {
	// The property WCDP needs: contiguous windows of the ordering cross
	// few nets. On s9234 a 140-node window must stay well under the
	// ~240-net crossings a frontier-style (max-adjacency) order produces.
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	order := ClusterOrder(h)
	const win = 140
	worst := 0
	for start := 0; start+win <= len(order); start += win {
		in := make(map[hypergraph.NodeID]bool, win)
		for i := start; i < start+win; i++ {
			in[order[i]] = true
		}
		cross := 0
		for e := 0; e < h.NumNets(); e++ {
			has, out := false, false
			for _, u := range h.NetPins(hypergraph.NetID(e)) {
				if in[u] {
					has = true
				} else {
					out = true
				}
			}
			if has && out {
				cross++
			}
		}
		if cross > worst {
			worst = cross
		}
	}
	if worst > 160 {
		t.Errorf("worst window cut %d: ordering too scrambled for the DP", worst)
	}
}

func TestVCycleSplitTinyRemainder(t *testing.T) {
	var b hypergraph.Builder
	b.AddInterior("only", 1)
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 4, Pins: 4, Fill: 1.0}
	p := partitionOf(t, h, dev)
	if _, _, ok, _ := vCycleSplit(context.Background(), p, 0, dev, new(obs.Stats)); ok {
		t.Error("single-node remainder split")
	}
}

func partitionOf(t *testing.T, h *hypergraph.Hypergraph, dev device.Device) *partition.Partition {
	t.Helper()
	return partition.New(h, dev)
}
