package hypergraph

import "testing"

func TestIDAccessors(t *testing.T) {
	var b Builder
	v0 := b.AddInterior("a", 2)
	p0 := b.AddPad("p")
	v1 := b.AddInterior("b", 1)
	b.AddNet("n", v0, v1, p0)
	b.AddNet("m", v0, v1)
	h := b.MustBuild()

	ids := h.NodeIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Errorf("NodeIDs = %v", ids)
	}
	in := h.InteriorIDs()
	if len(in) != 2 || in[0] != v0 || in[1] != v1 {
		t.Errorf("InteriorIDs = %v", in)
	}
	pads := h.PadIDs()
	if len(pads) != 1 || pads[0] != p0 {
		t.Errorf("PadIDs = %v", pads)
	}
	if h.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", h.MaxDegree())
	}
	if h.NetName(0) != "n" || h.NetName(1) != "m" {
		t.Errorf("NetName = %q, %q, want n, m", h.NetName(0), h.NetName(1))
	}
	if h.NodeName(v0) != "a" || h.NodeName(p0) != "p" || h.NodeName(v1) != "b" {
		t.Errorf("NodeName = %q, %q, %q, want a, p, b", h.NodeName(v0), h.NodeName(p0), h.NodeName(v1))
	}
	if h.NumInterior() != 2 {
		t.Errorf("NumInterior = %d", h.NumInterior())
	}
}

func TestBuilderNumNodes(t *testing.T) {
	var b Builder
	if b.NumNodes() != 0 {
		t.Error("fresh builder not empty")
	}
	b.AddInterior("a", 1)
	b.AddPad("p")
	if b.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", b.NumNodes())
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid input")
		}
	}()
	var b Builder
	b.AddNet("empty")
	b.MustBuild()
}

func TestFarthestFromSizeTieBreak(t *testing.T) {
	// Two nodes at the same distance: the bigger one wins.
	var b Builder
	s := b.AddInterior("s", 1)
	small := b.AddInterior("small", 1)
	big := b.AddInterior("big", 5)
	b.AddNet("n1", s, small)
	b.AddNet("n2", s, big)
	h := b.MustBuild()
	if far := h.FarthestFrom(s); far != big {
		t.Errorf("FarthestFrom = %d, want the bigger node %d", far, big)
	}
}

func TestInducedEmptySet(t *testing.T) {
	var b Builder
	v0 := b.AddInterior("a", 1)
	v1 := b.AddInterior("b", 1)
	b.AddNet("n", v0, v1)
	h := b.MustBuild()
	sub, back := h.Induced(nil)
	if sub.NumNodes() != 0 || len(back) != 0 {
		t.Errorf("empty induced subgraph: %v back=%v", sub, back)
	}
}

// TestAnonymousNameColumnsStayNil pins the name-column economy: a graph
// whose nodes and nets are all anonymous (a coarse level) keeps no name
// column at all, and a column that starts anonymous fills its earlier
// entries with "" once the first name arrives.
func TestAnonymousNameColumnsStayNil(t *testing.T) {
	var b Builder
	u := b.AddInterior("", 1)
	v := b.AddInterior("", 2)
	b.AddNet("", u, v)
	h := b.MustBuild()
	if h.nodeName != nil || h.netName != nil {
		t.Fatalf("anonymous graph keeps name columns: %d nodes, %d nets", len(h.nodeName), len(h.netName))
	}
	if h.NodeName(v) != "" || h.NetName(0) != "" || h.NumNets() != 1 {
		t.Fatalf("NodeName %q NetName %q NumNets %d", h.NodeName(v), h.NetName(0), h.NumNets())
	}

	w := b.AddPad("p")
	b.AddNet("", v, w)
	b.AddNet("n2", u, w)
	h = b.MustBuild()
	names := []string{h.NodeName(u), h.NodeName(v), h.NodeName(w)}
	if names[0] != "" || names[1] != "" || names[2] != "p" {
		t.Fatalf("node names %q", names)
	}
	if h.NetName(0) != "" || h.NetName(1) != "" || h.NetName(2) != "n2" {
		t.Fatalf("net names %q %q %q", h.NetName(0), h.NetName(1), h.NetName(2))
	}
}
