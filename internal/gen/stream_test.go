package gen

import (
	"bytes"
	"strings"
	"testing"

	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
)

// The streaming writer must be byte-identical to materializing the same
// circuit and serializing it — the two paths share one deterministic
// generator, and any drift would silently fork the benchmark inputs.
func TestStreamPHGMatchesWritePHG(t *testing.T) {
	for _, tc := range []struct {
		n, pads int
		seed    int64
		seq     bool
	}{
		{12, 4, 2, true},
		{100, 10, 1, false},
		{500, 40, 7, true},
		{1000, 0, 3, true},
	} {
		var want, got bytes.Buffer
		if err := netlist.WritePHG(&want, Synthetic(tc.n, tc.pads, tc.seed, tc.seq)); err != nil {
			t.Fatal(err)
		}
		if err := StreamPHG(&got, tc.n, tc.pads, tc.seed, tc.seq, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			wl := strings.Split(want.String(), "\n")
			gl := strings.Split(got.String(), "\n")
			for i := 0; i < len(wl) || i < len(gl); i++ {
				var w, g string
				if i < len(wl) {
					w = wl[i]
				}
				if i < len(gl) {
					g = gl[i]
				}
				if w != g {
					t.Fatalf("n=%d seed=%d: line %d differs:\nwrite:  %q\nstream: %q", tc.n, tc.seed, i+1, w, g)
				}
			}
			t.Fatalf("n=%d seed=%d: outputs differ in length only", tc.n, tc.seed)
		}
	}
}

// TestStreamPHGResourceStamps pins the -resources contract: stamping is
// deterministic (two runs agree byte for byte), the demand totals land
// near 1/Period of the cells, and the annotated output parses back with
// the resource columns intact.
func TestStreamPHGResourceStamps(t *testing.T) {
	stamps := []ResStamp{{Name: "DSP", Period: 16}, {Name: "BRAM", Period: 64}}
	var a, b bytes.Buffer
	if err := StreamPHG(&a, 1000, 40, 3, false, stamps); err != nil {
		t.Fatal(err)
	}
	if err := StreamPHG(&b, 1000, 40, 3, false, stamps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resource stamping is not deterministic")
	}
	h, err := netlist.ReadPHG(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cells := h.NumInterior()
	for _, st := range stamps {
		got := h.TotalResource(st.Name)
		want := cells / st.Period
		if got < want/2 || got > want*2 {
			t.Errorf("%s: %d demands over %d cells, want about %d (period %d)",
				st.Name, got, cells, want, st.Period)
		}
	}
	// Unstamped output is byte-identical to the nil-stamps stream: the
	// flag must not perturb the topology.
	var plain, empty bytes.Buffer
	if err := StreamPHG(&plain, 200, 10, 3, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := StreamPHG(&empty, 200, 10, 3, false, []ResStamp{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), empty.Bytes()) {
		t.Fatal("empty stamp list changed the output")
	}
}

func TestParseStamps(t *testing.T) {
	stamps, err := ParseStamps("DSP:16,BRAM:64")
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 2 || stamps[0] != (ResStamp{"DSP", 16}) || stamps[1] != (ResStamp{"BRAM", 64}) {
		t.Fatalf("parsed %+v", stamps)
	}
	if s, err := ParseStamps(""); err != nil || s != nil {
		t.Errorf("empty spec: %v %v", s, err)
	}
	for spec, wantSub := range map[string]string{
		"DSP":            `malformed resource token "DSP"`,
		"DSP:16,DSP:8":   `duplicate resource name in token "DSP:8"`,
		"DSP:many":       `not an integer`,
		"DSP:0":          `must be positive in token "DSP:0"`,
		"DSP:16,:4":      "malformed resource token",
		"DSP:16,BRAM:-2": `must be positive in token "BRAM:-2"`,
		"D SP:16":        `resource name in token "D SP:16" contains whitespace`,
		"DSP\u00a0:16":   "contains whitespace",
	} {
		_, err := ParseStamps(spec)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("ParseStamps(%q) = %v, want error containing %q", spec, err, wantSub)
		}
	}
}

// FuzzParseStamps checks the -resources contract end to end: every spec
// ParseStamps accepts must stream a PHG that ReadPHG parses, and each
// stamp's column must hold a unit demand on exactly the interior cells
// the stamp hits.
func FuzzParseStamps(f *testing.F) {
	for _, spec := range []string{"DSP:16,BRAM:64", "", "FF:1", "D SP:16", "#:2", "A:B:2", "x\u00a0:3", "Z:+7,Y:0003", "\xff:1", "DSP:16,DSP:8"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		stamps, err := ParseStamps(spec)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := StreamPHG(&buf, 60, 6, 1, false, stamps); err != nil {
			t.Fatal(err)
		}
		h, err := netlist.ReadPHG(&buf)
		if err != nil {
			t.Fatalf("spec %q: ReadPHG rejects the streamed output: %v", spec, err)
		}
		for _, st := range stamps {
			col := h.ResourceColumn(st.Name)
			for v := 0; v < h.NumNodes(); v++ {
				want := int32(0)
				if h.KindOf(hypergraph.NodeID(v)) == hypergraph.Interior && st.hits(v) {
					want = 1
				}
				got := int32(0)
				if col != nil {
					got = col[v]
				}
				if got != want {
					t.Fatalf("spec %q: %s demand of node %d is %d, want %d", spec, st.Name, v, got, want)
				}
			}
		}
	})
}

// Streamed output must parse back into the same graph shape.
func TestStreamPHGRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := StreamPHG(&buf, 300, 24, 5, true, nil); err != nil {
		t.Fatal(err)
	}
	h, err := netlist.ReadPHG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ref := Synthetic(300, 24, 5, true)
	if h.NumNodes() != ref.NumNodes() || h.NumNets() != ref.NumNets() || h.NumPins() != ref.NumPins() {
		t.Fatalf("round trip: %d/%d/%d nodes/nets/pins, want %d/%d/%d",
			h.NumNodes(), h.NumNets(), h.NumPins(), ref.NumNodes(), ref.NumNets(), ref.NumPins())
	}
}
