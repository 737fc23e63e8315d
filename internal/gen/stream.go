package gen

// Streaming PHG emission: a million-cell synthetic netlist is written
// directly to an io.Writer without ever materializing the hypergraph. The
// generator is deterministic in its spec (generate seeds its RNG from the
// circuit name), so StreamPHG simply replays it three times — once to
// count nets for the header, once to emit the node lines, once to emit the
// net lines — trading ~3× generation time (cheap) for O(1) buffering. The
// output is byte-identical to netlist.WritePHG(Synthetic(...));
// stream_test.go pins this differentially.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// ResStamp describes one synthetic resource axis stamped onto streamed
// cells: on average one cell in Period demands a unit of Name. Selection
// is a pure function of the cell's emission index, so the stamping is
// deterministic across runs, and cells are picked in short consecutive
// runs — emission order is locality order under the hierarchical
// generator, so demands cluster the way DSP/BRAM columns do in real
// designs rather than spreading uniformly.
type ResStamp struct {
	Name   string
	Period int
}

// stampRun is the length of each consecutive stamped run: Rent locality
// in the generator means runs of emission indices are topologically close.
const stampRun = 4

// hits reports whether the cell at emission index i carries this stamp.
func (st ResStamp) hits(i int) bool {
	return (i/stampRun)%st.Period == 0
}

// ParseStamps parses a -resources spec of NAME:PERIOD pairs, e.g.
// "DSP:16,BRAM:64" (one cell in 16 demands a DSP, one in 64 a BRAM).
// Names may not contain whitespace.
func ParseStamps(spec string) ([]ResStamp, error) {
	if spec == "" {
		return nil, nil
	}
	var out []ResStamp
	seen := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		name, per, ok := strings.Cut(tok, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed resource token %q (want NAME:PERIOD)", tok)
		}
		// The name becomes part of a NAME:1 token on a PHG node line,
		// which the reader splits on every unicode.IsSpace rune.
		if strings.IndexFunc(name, unicode.IsSpace) >= 0 {
			return nil, fmt.Errorf("resource name in token %q contains whitespace", tok)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate resource name in token %q", tok)
		}
		seen[name] = true
		p, err := strconv.Atoi(per)
		if err != nil {
			return nil, fmt.Errorf("resource period in token %q is not an integer", tok)
		}
		if p < 1 {
			return nil, fmt.Errorf("resource period must be positive in token %q", tok)
		}
		out = append(out, ResStamp{Name: name, Period: p})
	}
	return out, nil
}

// StreamPHG writes the Synthetic(n, pads, seed, sequential) circuit to w
// in PHG form without building it in memory. A non-empty stamps list
// annotates cells with deterministic resource demands (see ResStamp);
// with stamps nil the output is byte-identical to
// netlist.WritePHG(Synthetic(...)).
func StreamPHG(w io.Writer, n, pads int, seed int64, sequential bool, stamps []ResStamp) error {
	s := Spec{
		Name:       fmt.Sprintf("syn%d-%d", n, seed),
		IOBs:       pads,
		CLBs2000:   n,
		CLBs3000:   n,
		Sequential: sequential,
	}
	var cnt countEmitter
	generate(s, device.XC3000, Params{}, &cnt)

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "phg")
	fmt.Fprintf(bw, "# nodes=%d nets=%d\n", cnt.nodes, cnt.nets)
	ne := nodeEmitter{bw: bw, stamps: stamps}
	generate(s, device.XC3000, Params{}, &ne)
	te := netEmitter{bw: bw, stamp: make([]int32, cnt.nodes)}
	generate(s, device.XC3000, Params{}, &te)
	return bw.Flush()
}

// countEmitter tallies nodes and nets for the PHG header line.
type countEmitter struct {
	nodes, nets int
}

func (c *countEmitter) AddInterior(string, int) hypergraph.NodeID {
	c.nodes++
	return hypergraph.NodeID(c.nodes - 1)
}

func (c *countEmitter) AddPad(string) hypergraph.NodeID {
	c.nodes++
	return hypergraph.NodeID(c.nodes - 1)
}

func (c *countEmitter) AddNet(string, ...hypergraph.NodeID) { c.nets++ }

// nodeEmitter writes node and pad lines as they are emitted — emission
// order is ID order, matching WritePHG's sequential node dump.
type nodeEmitter struct {
	bw     *bufio.Writer
	next   int
	stamps []ResStamp
}

func (ne *nodeEmitter) AddInterior(name string, size int) hypergraph.NodeID {
	fmt.Fprintf(ne.bw, "node %s %d", name, size)
	for _, st := range ne.stamps {
		if st.hits(ne.next) {
			fmt.Fprintf(ne.bw, " %s:1", st.Name)
		}
	}
	fmt.Fprintln(ne.bw)
	ne.next++
	return hypergraph.NodeID(ne.next - 1)
}

func (ne *nodeEmitter) AddPad(name string) hypergraph.NodeID {
	fmt.Fprintf(ne.bw, "pad %s\n", name)
	ne.next++
	return hypergraph.NodeID(ne.next - 1)
}

func (ne *nodeEmitter) AddNet(string, ...hypergraph.NodeID) {}

// netEmitter writes net lines, deduplicating pins with the same
// keep-first-occurrence rule as hypergraph.Builder.AddNet so pin lists
// match the materialized graph exactly.
// net pre-increments per AddNet call, so the zero-valued stamp array never
// collides with a live net id.
type netEmitter struct {
	bw    *bufio.Writer
	next  int
	stamp []int32
	net   int32
}

func (te *netEmitter) AddInterior(string, int) hypergraph.NodeID {
	te.next++
	return hypergraph.NodeID(te.next - 1)
}

func (te *netEmitter) AddPad(string) hypergraph.NodeID {
	te.next++
	return hypergraph.NodeID(te.next - 1)
}

func (te *netEmitter) AddNet(name string, pins ...hypergraph.NodeID) {
	te.net++
	fmt.Fprintf(te.bw, "net %s", name)
	for _, p := range pins {
		if te.stamp[p] == te.net {
			continue
		}
		te.stamp[p] = te.net
		fmt.Fprintf(te.bw, " %d", p)
	}
	fmt.Fprintln(te.bw)
}
