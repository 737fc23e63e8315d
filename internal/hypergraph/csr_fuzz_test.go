package hypergraph

// Property test for the CSR incidence layout: a fuzzer-driven Builder
// construction must produce slab-backed accessors (NetPins, NodeNets,
// Degree, NetDegree, packed attributes) that agree with an independent
// shadow incidence built directly from the raw inputs. The shadow is
// assembled BEFORE Build repoints the legacy structs at the slabs, so the
// comparison cannot be satisfied by aliasing.

import (
	"testing"
)

// decodeCircuit turns a fuzzer byte stream into a deterministic Builder
// construction plus the shadow input lists it was built from. Duplicate
// pins are pre-collapsed the same way AddNet collapses them, so the shadow
// pin lists are exactly what Build receives.
func decodeCircuit(data []byte) (b *Builder, kinds []NodeKind, sizes, ffs []int, netPins [][]NodeID) {
	if len(data) < 2 {
		return nil, nil, nil, nil, nil
	}
	b = &Builder{}
	n := int(data[0])%48 + 1
	data = data[1:]
	for i := 0; i < n; i++ {
		var spec byte
		if i < len(data) {
			spec = data[i]
		}
		if spec&1 == 0 {
			sz := int(spec>>1)%7 + 1
			id := b.AddInterior("v", sz)
			ff := int(spec >> 4 & 3)
			b.SetResource(id, "FF", ff)
			kinds = append(kinds, Interior)
			sizes = append(sizes, sz)
			ffs = append(ffs, ff)
		} else {
			b.AddPad("p")
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
	for len(data) > 0 {
		deg := int(data[0])%6 + 1
		data = data[1:]
		if deg > len(data) {
			deg = len(data)
		}
		if deg == 0 {
			break
		}
		var pins []NodeID
		seen := map[NodeID]bool{}
		for _, raw := range data[:deg] {
			p := NodeID(int(raw) % n)
			if !seen[p] {
				seen[p] = true
				pins = append(pins, p)
			}
		}
		data = data[deg:]
		b.AddNet("e", pins...)
		netPins = append(netPins, pins)
	}
	return b, kinds, sizes, ffs, netPins
}

func FuzzBuilderCSRRoundTrip(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 3, 0, 1, 2, 2, 3, 4})
	f.Add([]byte{3, 2, 2, 2, 1, 0, 1, 1, 1, 2, 2, 0})
	f.Add([]byte{48, 255, 254})
	f.Add([]byte{1, 0, 5, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, kinds, sizes, ffs, netPins := decodeCircuit(data)
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
			nd := h.Node(id)
			if nd.Kind != kinds[v] || nd.Size != sizes[v] {
				t.Fatalf("node %d struct attrs diverge from packed arrays", v)
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
