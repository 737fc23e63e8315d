package hypergraph

// Property test for the column layout: a fuzzer-driven Builder
// construction must produce accessors (NodeName, NetName, SizeOf, KindOf,
// NetPins, NodeNets, Degree, NetDegree, resource columns) that agree with
// an independent shadow built directly from the raw inputs. AddNet gets
// the raw pin lists, duplicates included, in a buffer that is scribbled
// over after each call, so the comparison also pins AddNet's
// keep-first-occurrence dedup and its copy of the caller's pins.

import (
	"fmt"
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
			if len(got) > maxDeg {
				maxDeg = len(got)
			}
			if kinds[v] == Interior {
				totalSize += sizes[v]
			} else {
				pads++
			}
			totalFF += ffs[v]
		}
		for ei, pins := range netPins {
			id := NetID(ei)
			if h.NetName(id) != netNames[ei] {
				t.Fatalf("net %d name %q, want %q", ei, h.NetName(id), netNames[ei])
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
		if h.MaxDegree() != maxDeg {
			t.Fatalf("MaxDegree %d, shadow %d", h.MaxDegree(), maxDeg)
		}
		if (ffCol == nil) != (totalFF == 0) {
			t.Fatalf("FF column present=%v, shadow total %d", ffCol != nil, totalFF)
		}
		if h.TotalSize() != totalSize || h.TotalResource("FF") != totalFF || h.NumPads() != pads {
			t.Fatalf("aggregates: size %d FF %d pads %d, shadow %d/%d/%d",
				h.TotalSize(), h.TotalResource("FF"), h.NumPads(), totalSize, totalFF, pads)
		}
	})
}
