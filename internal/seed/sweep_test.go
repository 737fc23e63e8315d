package seed

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/partition"
)

// fullSweep is the ratio-cut sweep without its early stop and without the
// lazy heap: each step scans the remainder for the most attracted
// unclustered node (ties to the lower ID, and the first unclustered node
// when nothing is attracted), and every prefix up to the last is judged.
func fullSweep(p *partition.Partition, rem partition.BlockID, dev device.Device, s hypergraph.NodeID, remNodes []hypergraph.NodeID, totalSize int) ([]hypergraph.NodeID, float64, bool) {
	h := p.Hypergraph()
	t := newTracker(p, rem)
	attract := make([]int, h.NumNodes())
	var members []hypergraph.NodeID
	add := func(v hypergraph.NodeID) {
		t.Add(v)
		members = append(members, v)
		for _, e := range h.NodeNets(v) {
			for _, u := range h.NetPins(e) {
				if u != v && p.Block(u) == rem && !t.Contains(u) {
					attract[u]++
				}
			}
		}
	}
	add(s)
	best, bestLen := math.Inf(1), -1
	for len(members) < len(remNodes) {
		var v hypergraph.NodeID = -1
		for _, u := range remNodes {
			if t.Contains(u) || attract[u] == 0 {
				continue
			}
			if v < 0 || attract[u] > attract[v] || attract[u] == attract[v] && u < v {
				v = u
			}
		}
		if v < 0 {
			for _, u := range remNodes {
				if !t.Contains(u) {
					v = u
					break
				}
			}
		}
		add(v)
		if len(members) == len(remNodes) {
			break
		}
		s1, s2 := t.size, totalSize-t.size
		if s1 == 0 || s2 == 0 {
			continue
		}
		r := float64(t.intCut) / (float64(s1) * float64(s2))
		if dev.Fits(s1, t.term) && t.resWithin() && r < best {
			best, bestLen = r, len(members)
		}
	}
	if bestLen < 0 {
		return nil, 0, false
	}
	return members[:bestLen], best, true
}

// TestRatioCutSweepMatchesFullSweep: the sweep stops once the cluster
// outgrows S_MAX. From both seed points, at several peel depths, on MCNC
// circuits, on R>1 stamped inputs and on a circuit whose best prefix fills
// S_MAX exactly, it must return exactly the prefix and ratio of the full
// sweep.
func TestRatioCutSweepMatchesFullSweep(t *testing.T) {
	type instance struct {
		name string
		h    *hypergraph.Hypergraph
		dev  device.Device
	}
	// Two 6-node clusters behind one bridge net: the best prefix is one
	// whole cluster, whose size is exactly S_MAX.
	pair, _, _ := twoClusters(t, 6)
	insts := []instance{{"two-clusters", pair, device.Device{Name: "six", DatasheetCells: 6, Pins: 20, Fill: 1.0}}}
	for _, c := range []struct{ circuit, dev string }{
		{"c3540", "XC3020"}, {"c5315", "XC3042"}, {"s9234", "XC2064"},
	} {
		spec, _ := gen.ByName(c.circuit)
		dev, _ := device.ByName(c.dev)
		insts = append(insts, instance{c.circuit + "/" + c.dev, gen.Generate(spec, dev.Family), dev})
	}
	vdev, err := device.XC3042.WithResources([]device.Resource{{Name: "DSP", Cap: 8}, {Name: "BRAM", Cap: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{42, 7} {
		var buf bytes.Buffer
		stamps := []gen.ResStamp{{Name: "DSP", Period: 16}, {Name: "BRAM", Period: 64}}
		if err := gen.StreamPHG(&buf, 600, 50, seed, true, stamps); err != nil {
			t.Fatal(err)
		}
		h, err := netlist.ReadPHG(&buf)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{fmt.Sprintf("phg%d/DSP+BRAM", seed), h, vdev})
	}

	for _, in := range insts {
		p := partition.New(in.h, in.dev)
		m := device.LowerBound(in.h, in.dev)
		const rem = partition.BlockID(0)
		for depth := 0; depth < 4; depth++ {
			s1, s2, ok := seeds(p, rem)
			if !ok {
				break
			}
			remNodes := p.NodesIn(rem)
			total := 0
			for _, v := range remNodes {
				total += in.h.SizeOf(v)
			}
			for _, s := range []hypergraph.NodeID{s1, s2} {
				set, ratio, found := sweepFrom(p, rem, in.dev, s, remNodes, total)
				wSet, wRatio, wFound := fullSweep(p, rem, in.dev, s, remNodes, total)
				if found != wFound || ratio != wRatio || fmt.Sprint(set) != fmt.Sprint(wSet) {
					t.Fatalf("%s depth %d seed %d: sweep gives %d nodes at ratio %g (found %v), full sweep %d at %g (found %v)",
						in.name, depth, s, len(set), ratio, found, len(wSet), wRatio, wFound)
				}
			}
			if _, ok := Best(p, rem, in.dev, partition.DefaultCost(), m); !ok {
				break
			}
		}
	}
}
