package hypergraph

// Property test for the column layout: a fuzzer-driven Builder
// construction must produce accessors (NodeName, NetName, SizeOf, KindOf,
// NetPins, NodeNets, Degree, NetDegree, resource columns)
// that agree with an independent shadow built directly from the raw
// inputs. AddNet gets the raw pin lists, duplicates included, in a buffer
// that is scribbled over after each call, so the comparison also pins
// AddNet's keep-first-occurrence dedup and its copy of the caller's pins.
// MergeParallelNets is checked against a shadow merge keyed by sorted pin
// set.

import (
	"fmt"
	"slices"
	"testing"
)

// decodeCircuit turns a fuzzer byte stream into a deterministic Builder
// construction plus the shadow input lists it was built from. The shadow
// pin lists are the raw pins with duplicates collapsed to their first
// occurrence — what AddNet is documented to keep.
func decodeCircuit(data []byte) (b *Builder, kinds []NodeKind, sizes, ffs []int, netPins [][]NodeID, nodeNames, netNames []string) {
	if len(data) < 2 {
		return nil, nil, nil, nil, nil, nil, nil
	}
	b = &Builder{}
	n := int(data[0])%48 + 1
	data = data[1:]
	for i := 0; i < n; i++ {
		var spec byte
		if i < len(data) {
			spec = data[i]
		}
		// Names vary with the spec byte and repeat across nodes; spec 0
		// gives an anonymous node, as the coarsener makes.
		name := ""
		if spec != 0 {
			name = fmt.Sprintf("n%d", spec%11)
		}
		nodeNames = append(nodeNames, name)
		if spec&1 == 0 {
			sz := int(spec>>1)%7 + 1
			id := b.AddInterior(name, sz)
			ff := int(spec >> 4 & 3)
			b.SetResource(id, "FF", ff)
			kinds = append(kinds, Interior)
			sizes = append(sizes, sz)
			ffs = append(ffs, ff)
		} else {
			b.AddPad(name)
			kinds = append(kinds, Pad)
			sizes = append(sizes, 0)
			ffs = append(ffs, 0)
		}
	}
	if n < len(data) {
		data = data[n:]
	} else {
		data = nil
	}
	// Remaining bytes: alternating (degree, pins...) groups.
	var raw []NodeID
	for len(data) > 0 {
		head := data[0]
		deg := int(head)%6 + 1
		data = data[1:]
		if deg > len(data) {
			deg = len(data)
		}
		if deg == 0 {
			break
		}
		raw = raw[:0]
		var pins []NodeID
		seen := map[NodeID]bool{}
		for _, x := range data[:deg] {
			p := NodeID(int(x) % n)
			raw = append(raw, p)
			if !seen[p] {
				seen[p] = true
				pins = append(pins, p)
			}
		}
		data = data[deg:]
		name := fmt.Sprintf("e%d", head)
		b.AddNet(name, raw...)
		for i := range raw {
			raw[i] = -1 // AddNet must have copied the pins
		}
		netPins = append(netPins, pins)
		netNames = append(netNames, name)
	}
	return b, kinds, sizes, ffs, netPins, nodeNames, netNames
}

func FuzzBuilderCSRRoundTrip(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 3, 0, 1, 2, 2, 3, 4})
	f.Add([]byte{3, 2, 2, 2, 1, 0, 1, 1, 1, 2, 2, 0})
	f.Add([]byte{48, 255, 254})
	f.Add([]byte{1, 0, 5, 0, 0, 0, 0, 0})
	// Parallel nets, pins permuted.
	f.Add([]byte{3, 2, 4, 6, 1, 1, 0, 1, 1, 1, 0, 134, 0, 1, 2, 134, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, kinds, sizes, ffs, netPins, nodeNames, netNames := decodeCircuit(data)
		if b == nil {
			return
		}
		// Shadow transpose from the raw inputs: node v's incident nets in
		// ascending net order — the documented NodeNets order.
		n := len(kinds)
		shadowNets := make([][]NetID, n)
		for ei, pins := range netPins {
			for _, p := range pins {
				shadowNets[p] = append(shadowNets[p], NetID(ei))
			}
		}

		h, err := b.Build()
		if err != nil {
			t.Fatalf("Build failed on valid construction: %v", err)
		}
		if h.NumNodes() != n || h.NumNets() != len(netPins) {
			t.Fatalf("dims: got %d nodes %d nets, want %d, %d", h.NumNodes(), h.NumNets(), n, len(netPins))
		}

		// The FF column exists iff some node demands a flip-flop; absent
		// reads as zero everywhere.
		ffCol := h.ResourceColumn("FF")
		ffOf := func(v int) int {
			if ffCol == nil {
				return 0
			}
			return int(ffCol[v])
		}
		totalPins, maxDeg, totalSize, totalFF, pads := 0, 0, 0, 0, 0
		for v := 0; v < n; v++ {
			id := NodeID(v)
			if h.KindOf(id) != kinds[v] || h.SizeOf(id) != sizes[v] || ffOf(v) != ffs[v] {
				t.Fatalf("node %d attrs: kind=%v size=%d FF=%d, want %v/%d/%d",
					v, h.KindOf(id), h.SizeOf(id), ffOf(v), kinds[v], sizes[v], ffs[v])
			}
			if h.NodeName(id) != nodeNames[v] {
				t.Fatalf("node %d name %q, want %q", v, h.NodeName(id), nodeNames[v])
			}
			got := h.NodeNets(id)
			if len(got) != len(shadowNets[v]) || h.Degree(id) != len(shadowNets[v]) {
				t.Fatalf("node %d: %d incident nets (Degree %d), shadow %d",
					v, len(got), h.Degree(id), len(shadowNets[v]))
			}
			for i := range got {
				if got[i] != shadowNets[v][i] {
					t.Fatalf("node %d nets[%d]: got %d, shadow %d", v, i, got[i], shadowNets[v][i])
				}
			}
			totalPins += len(got)
			maxDeg = max(maxDeg, len(got))
			if kinds[v] == Interior {
				totalSize += sizes[v]
			} else {
				pads++
			}
			totalFF += ffs[v]
		}
		for ei, pins := range netPins {
			id := NetID(ei)
			if h.NetName(id) != netNames[ei] || h.NetWeight(id) != 1 {
				t.Fatalf("net %d name %q weight %d, want %q, 1", ei, h.NetName(id), h.NetWeight(id), netNames[ei])
			}
			got := h.NetPins(id)
			if len(got) != len(pins) || h.NetDegree(id) != len(pins) {
				t.Fatalf("net %d: %d pins (NetDegree %d), shadow %d",
					ei, len(got), h.NetDegree(id), len(pins))
			}
			for i := range got {
				if got[i] != pins[i] {
					t.Fatalf("net %d pins[%d]: got %d, shadow %d", ei, i, got[i], pins[i])
				}
			}
		}
		if h.NumPins() != totalPins {
			t.Fatalf("NumPins %d, shadow transpose has %d", h.NumPins(), totalPins)
		}
		if h.MaxDegree() != maxDeg || h.MaxWeightedDegree() != maxDeg {
			t.Fatalf("MaxDegree %d, MaxWeightedDegree %d, shadow %d", h.MaxDegree(), h.MaxWeightedDegree(), maxDeg)
		}
		if (ffCol == nil) != (totalFF == 0) {
			t.Fatalf("FF column present=%v, shadow total %d", ffCol != nil, totalFF)
		}
		if h.TotalSize() != totalSize || h.TotalResource("FF") != totalFF || h.NumPads() != pads {
			t.Fatalf("aggregates: size %d FF %d pads %d, shadow %d/%d/%d",
				h.TotalSize(), h.TotalResource("FF"), h.NumPads(), totalSize, totalFF, pads)
		}
		checkMerge(t, h, netPins, netNames)
	})
}

// setKey renders a pin list's sorted set.
func setKey(pins []NodeID) string {
	sorted := slices.Clone(pins)
	slices.Sort(sorted)
	return fmt.Sprint(sorted)
}

// checkMerge compares h.MergeParallelNets with a shadow merge: the first
// net of each sorted pin set survives, in net order, with its own pins and
// name and the size of its set as weight; node columns and aggregates are
// h's, and the transpose is rebuilt over the survivors.
func checkMerge(t *testing.T, h *Hypergraph, netPins [][]NodeID, netNames []string) {
	t.Helper()
	var survivors []int
	weightOf := map[string]int{}
	for ei, pins := range netPins {
		key := setKey(pins)
		if _, seen := weightOf[key]; !seen {
			survivors = append(survivors, ei)
		}
		weightOf[key]++
	}
	g := h.MergeParallelNets()
	if len(survivors) == len(netPins) && g != h {
		t.Fatal("MergeParallelNets copied a graph without parallel nets")
	}
	if g.NumNets() != len(survivors) || g.NumNodes() != h.NumNodes() || g.TotalSize() != h.TotalSize() || g.NumPads() != h.NumPads() {
		t.Fatalf("merged dims: %d nets %d nodes, want %d, %d", g.NumNets(), g.NumNodes(), len(survivors), h.NumNodes())
	}
	shadowNets := make([][]NetID, h.NumNodes())
	maxWDeg := 0
	for si, ei := range survivors {
		id := NetID(si)
		pins := netPins[ei]
		want := weightOf[setKey(pins)]
		if !slices.Equal(g.NetPins(id), pins) || g.NetWeight(id) != want || g.NetName(id) != netNames[ei] {
			t.Fatalf("merged net %d: pins %v weight %d name %q, want net %d: %v, %d, %q",
				si, g.NetPins(id), g.NetWeight(id), g.NetName(id), ei, pins, want, netNames[ei])
		}
		for _, p := range pins {
			shadowNets[p] = append(shadowNets[p], id)
		}
	}
	for v := range shadowNets {
		id := NodeID(v)
		if !slices.Equal(g.NodeNets(id), shadowNets[v]) || g.SizeOf(id) != h.SizeOf(id) || g.NodeName(id) != h.NodeName(id) {
			t.Fatalf("merged node %d: nets %v, want %v", v, g.NodeNets(id), shadowNets[v])
		}
		wdeg := 0
		for _, e := range shadowNets[v] {
			wdeg += g.NetWeight(e)
		}
		maxWDeg = max(maxWDeg, wdeg)
	}
	if g.MaxWeightedDegree() != maxWDeg || g.MaxWeightedDegree() != h.MaxWeightedDegree() {
		t.Fatalf("merged MaxWeightedDegree %d, shadow %d, unmerged %d", g.MaxWeightedDegree(), maxWDeg, h.MaxWeightedDegree())
	}
}
