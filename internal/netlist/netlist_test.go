package netlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpart/internal/hypergraph"
)

func sample(t testing.TB) *hypergraph.Hypergraph {
	t.Helper()
	var b hypergraph.Builder
	a := b.AddInterior("a", 2)
	c := b.AddInterior("b c", 3) // space in name: sanitized on write
	p := b.AddPad("p")
	b.AddNet("n1", a, c)
	b.AddNet("n2", a, c, p)
	return b.MustBuild()
}

func TestPHGRoundTrip(t *testing.T) {
	h := sample(t)
	var buf bytes.Buffer
	if err := WritePHG(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadPHG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumNodes() != h.NumNodes() || h2.NumNets() != h.NumNets() ||
		h2.NumPads() != h.NumPads() || h2.TotalSize() != h.TotalSize() {
		t.Errorf("round trip mismatch: %v vs %v", h2, h)
	}
	for e := 0; e < h.NumNets(); e++ {
		if len(h2.NetPins(hypergraph.NetID(e))) != len(h.NetPins(hypergraph.NetID(e))) {
			t.Errorf("net %d pin count differs", e)
		}
	}
}

func TestPHGErrors(t *testing.T) {
	cases := map[string]string{
		"no header":     "node a 1\n",
		"bad size":      "phg\nnode a zero\n",
		"zero size":     "phg\nnode a 0\n",
		"bad pin":       "phg\nnode a 1\nnet n 7\n",
		"negative pin":  "phg\nnode a 1\nnet n -1\n",
		"short node":    "phg\nnode a\n",
		"short pad":     "phg\npad\n",
		"short net":     "phg\nnet n\n",
		"unknown direc": "phg\nblah x\n",
	}
	for name, in := range cases {
		if _, err := ReadPHG(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestPHGCommentsAndBlank(t *testing.T) {
	in := "# leading comment\nphg\n\nnode a 2\n# mid\npad p\nnet n 0 1\n"
	h, err := ReadPHG(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 2 || h.NumNets() != 1 {
		t.Errorf("parsed %v", h)
	}
}

func TestHgrRoundTrip(t *testing.T) {
	h := sample(t)
	var buf bytes.Buffer
	if err := WriteHgr(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHgr(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumNodes() != h.NumNodes() || h2.NumNets() != h.NumNets() ||
		h2.NumPads() != h.NumPads() || h2.TotalSize() != h.TotalSize() {
		t.Errorf("round trip mismatch: %v vs %v", h2, h)
	}
}

func TestHgrUnweighted(t *testing.T) {
	in := "2 3\n1 2\n2 3\n"
	h, err := ReadHgr(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 3 || h.NumNets() != 2 || h.TotalSize() != 3 {
		t.Errorf("parsed %v", h)
	}
}

func TestHgrComments(t *testing.T) {
	in := "% hmetis comment\n1 2 10\n1 2\n2\n0\n"
	h, err := ReadHgr(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumPads() != 1 || h.NumInterior() != 1 {
		t.Errorf("weight-0 pad convention broken: %v", h)
	}
}

func TestHgrErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "x y\n",
		"one field":    "3\n",
		"net weights":  "1 2 1\n1 2\n",
		"short nets":   "2 2\n1 2\n",
		"pin range":    "1 2\n1 3\n",
		"pin zero":     "1 2\n0 1\n",
		"missing wgt":  "1 2 10\n1 2\n1\n",
		"negative wgt": "1 2 10\n1 2\n-1\n1\n",
	}
	for name, in := range cases {
		if _, err := ReadHgr(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// Property: PHG and HGR round trips preserve the full pin structure for
// random hypergraphs.
func TestQuickRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b hypergraph.Builder
		n := 2 + r.Intn(25)
		for i := 0; i < n; i++ {
			if r.Intn(6) == 0 {
				b.AddPad("p")
			} else {
				b.AddInterior("v", 1+r.Intn(5))
			}
		}
		for e := 0; e < 1+r.Intn(30); e++ {
			d := 1 + r.Intn(4)
			pins := make([]hypergraph.NodeID, d)
			for i := range pins {
				pins[i] = hypergraph.NodeID(r.Intn(n))
			}
			b.AddNet("e", pins...)
		}
		h := b.MustBuild()
		for _, codec := range []struct {
			w func(*bytes.Buffer) error
			r func(*bytes.Buffer) (*hypergraph.Hypergraph, error)
		}{
			{func(buf *bytes.Buffer) error { return WritePHG(buf, h) },
				func(buf *bytes.Buffer) (*hypergraph.Hypergraph, error) { return ReadPHG(buf) }},
			{func(buf *bytes.Buffer) error { return WriteHgr(buf, h) },
				func(buf *bytes.Buffer) (*hypergraph.Hypergraph, error) { return ReadHgr(buf) }},
		} {
			var buf bytes.Buffer
			if err := codec.w(&buf); err != nil {
				return false
			}
			h2, err := codec.r(&buf)
			if err != nil {
				return false
			}
			if h2.NumNodes() != h.NumNodes() || h2.NumNets() != h.NumNets() ||
				h2.NumPads() != h.NumPads() || h2.TotalSize() != h.TotalSize() {
				return false
			}
			for e := 0; e < h.NumNets(); e++ {
				a, bb := h.NetPins(hypergraph.NetID(e)), h2.NetPins(hypergraph.NetID(e))
				if len(a) != len(bb) {
					return false
				}
				for i := range a {
					if a[i] != bb[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

const sampleBlif = `
# a tiny accumulator
.model acc
.inputs a b clk
.outputs sum
.names a b w1   # AND
11 1
.names w1 q w2 \

.names w2 sum
1 1
.latch w2 q re clk 0
.end
`

func TestReadBLIF(t *testing.T) {
	c, err := ReadBLIF(strings.NewReader(sampleBlif))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "acc" {
		t.Errorf("model = %q", c.Name)
	}
	if len(c.Inputs) != 3 || len(c.Outputs) != 1 {
		t.Errorf("io: %v %v", c.Inputs, c.Outputs)
	}
	if len(c.Gates) != 3 {
		t.Fatalf("gates = %d, want 3", len(c.Gates))
	}
	if len(c.Latches) != 1 || c.Latches[0].Input != "w2" || c.Latches[0].Output != "q" {
		t.Errorf("latches = %+v", c.Latches)
	}
	// Continuation line: second gate has inputs w1 q, output w2.
	g := c.Gates[1]
	if g.Output != "w2" || len(g.Inputs) != 2 {
		t.Errorf("gate 1 = %+v", g)
	}
}

func TestBLIFErrors(t *testing.T) {
	cases := map[string]string{
		"no model":   ".inputs a\n.end\n",
		"two models": ".model a\n.end\n.model b\n.end\n",
		"subckt":     ".model a\n.subckt foo x=y\n.end\n",
		"gate":       ".model a\n.gate nand2 a=x\n.end\n",
		"bare names": ".model a\n.names\n.end\n",
		"bare latch": ".model a\n.latch x\n.end\n",
	}
	for name, in := range cases {
		if _, err := ReadBLIF(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBLIFHypergraph(t *testing.T) {
	c, err := ReadBLIF(strings.NewReader(sampleBlif))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Hypergraph()
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: 3 PI pads + 1 PO pad + 3 gates + 1 latch = 8.
	if h.NumNodes() != 8 || h.NumPads() != 4 || h.NumInterior() != 4 {
		t.Fatalf("nodes=%d pads=%d", h.NumNodes(), h.NumPads())
	}
	// Signals with >= 2 connections: a, b, w1, q, w2, sum. clk has only
	// its pad (latch control signals are not modeled) -> 6 nets.
	if h.NumNets() != 6 {
		t.Errorf("nets = %d, want 6", h.NumNets())
	}
	// w2 connects gate(w2), gate(sum), latch -> 3 pins.
	found := false
	for e := 0; e < h.NumNets(); e++ {
		if h.NetName(hypergraph.NetID(e)) == "w2" {
			found = true
			if len(h.NetPins(hypergraph.NetID(e))) != 3 {
				t.Errorf("w2 has %d pins, want 3", len(h.NetPins(hypergraph.NetID(e))))
			}
		}
	}
	if !found {
		t.Error("net w2 missing")
	}
}

func TestBLIFHypergraphDeterministic(t *testing.T) {
	mk := func() string {
		c, err := ReadBLIF(strings.NewReader(sampleBlif))
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Hypergraph()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePHG(&buf, h); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if mk() != mk() {
		t.Error("BLIF lowering is nondeterministic")
	}
}
