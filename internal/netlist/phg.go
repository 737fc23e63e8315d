// Package netlist reads and writes circuit hypergraphs in three formats:
//
//   - PHG, a small line-oriented native format that captures everything the
//     partitioning model needs (interior node sizes, pad nodes, named nets);
//   - hMETIS .hgr, the de-facto exchange format for hypergraph
//     partitioning benchmarks (node weights supported; pads encoded as
//     weight-0 nodes);
//   - a structural subset of Berkeley BLIF (.model/.inputs/.outputs/
//     .names/.latch), from which a gate-level hypergraph is derived for the
//     technology mapper.
package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpart/internal/hypergraph"
)

// WritePHG serializes the hypergraph in PHG form:
//
//	phg
//	node <name> <size> [RES:DEMAND...]
//	pad <name>
//	net <name> <node-index>...
//
// Nodes are referenced by zero-based index to keep files compact and to
// avoid requiring unique names. Lines beginning with '#' are comments.
// The optional trailing NAME:DEMAND tokens on a node line declare the
// node's demand on named resource axes (DSP, BRAM, ...); absent tokens
// mean zero, so scalar netlists are written and parsed exactly as before.
func WritePHG(w io.Writer, h *hypergraph.Hypergraph) error {
	resNames := h.ResourceNames()
	for _, name := range resNames {
		if strings.ContainsFunc(name, func(r rune) bool { return r == ':' || isSpace(r) }) {
			return fmt.Errorf("phg: resource name %q holds ':' or a space, so it cannot be written as NAME:DEMAND", name)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "phg")
	fmt.Fprintf(bw, "# nodes=%d nets=%d\n", h.NumNodes(), h.NumNets())
	resCols := make([][]int32, len(resNames))
	for i, name := range resNames {
		resCols[i] = h.ResourceColumn(name)
	}
	for i := 0; i < h.NumNodes(); i++ {
		v := hypergraph.NodeID(i)
		if h.KindOf(v) == hypergraph.Pad {
			fmt.Fprintf(bw, "pad %s\n", sanitizeName(h.NodeName(v), i))
		} else {
			fmt.Fprintf(bw, "node %s %d", sanitizeName(h.NodeName(v), i), h.SizeOf(v))
			for ri, col := range resCols {
				if d := col[i]; d > 0 {
					fmt.Fprintf(bw, " %s:%d", resNames[ri], d)
				}
			}
			fmt.Fprintln(bw)
		}
	}
	for e := 0; e < h.NumNets(); e++ {
		fmt.Fprintf(bw, "net %s", sanitizeName(h.NetName(hypergraph.NetID(e)), e))
		for _, p := range h.NetPins(hypergraph.NetID(e)) {
			fmt.Fprintf(bw, " %d", p)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// sanitizeName makes name one PHG field: every rune the reader splits on
// becomes '_', and an empty name becomes "_<fallback>".
func sanitizeName(name string, fallback int) string {
	if name == "" {
		return fmt.Sprintf("_%d", fallback)
	}
	return strings.Map(func(r rune) rune {
		if isSpace(r) {
			return '_'
		}
		return r
	}, name)
}

// ReadPHG parses the PHG format written by WritePHG, applying
// DefaultLimits. Use ReadPHGLimits to accept untrusted input under custom
// caps.
func ReadPHG(r io.Reader) (*hypergraph.Hypergraph, error) {
	return ReadPHGLimits(r, Limits{})
}

// ReadPHGLimits parses PHG input under the given parser limits; exceeding
// one returns a *LimitError. Zero Limits fields select DefaultLimits.
func ReadPHGLimits(r io.Reader, lim Limits) (*hypergraph.Hypergraph, error) {
	lim = lim.normalize()
	sc := bufio.NewScanner(r)
	lim.bufferFor(sc)
	var (
		b    hypergraph.Builder
		tok  [][]byte
		pins []hypergraph.NodeID // reused: AddNet copies
	)
	lineNo := 0
	sawHeader := false
	nets := 0
	for sc.Scan() {
		lineNo++
		tok = fields(tok[:0], sc.Bytes())
		if len(tok) == 0 || tok[0][0] == '#' {
			continue
		}
		switch string(tok[0]) {
		case "phg":
			sawHeader = true
		case "node":
			if len(tok) < 3 {
				return nil, fmt.Errorf("phg line %d: node wants 2 args", lineNo)
			}
			// Sizes and demands are packed into int32 columns: wider
			// values are rejected rather than wrapped.
			size, ok := parseInt32(tok[2])
			if !ok || size < 1 {
				return nil, fmt.Errorf("phg line %d: bad size %q", lineNo, tok[2])
			}
			if b.NumNodes() >= lim.MaxNodes {
				return nil, &LimitError{Format: "phg", Quantity: "nodes", Limit: lim.MaxNodes}
			}
			id := b.AddInterior(string(tok[1]), int(size))
			// Optional trailing NAME:DEMAND resource tokens.
			for _, t := range tok[3:] {
				colon := bytes.IndexByte(t, ':')
				if colon < 1 {
					return nil, fmt.Errorf("phg line %d: bad resource token %q (want NAME:DEMAND)", lineNo, t)
				}
				dem, ok := parseInt32(t[colon+1:])
				if !ok || dem < 0 {
					return nil, fmt.Errorf("phg line %d: bad resource demand %q", lineNo, t)
				}
				b.SetResource(id, string(t[:colon]), int(dem))
			}
		case "pad":
			if len(tok) != 2 {
				return nil, fmt.Errorf("phg line %d: pad wants 1 arg", lineNo)
			}
			if b.NumNodes() >= lim.MaxNodes {
				return nil, &LimitError{Format: "phg", Quantity: "nodes", Limit: lim.MaxNodes}
			}
			b.AddPad(string(tok[1]))
		case "net":
			if len(tok) < 3 {
				return nil, fmt.Errorf("phg line %d: net wants a name and pins", lineNo)
			}
			if len(tok)-2 > lim.MaxPins {
				return nil, &LimitError{Format: "phg", Quantity: "pins", Limit: lim.MaxPins}
			}
			if nets >= lim.MaxNets {
				return nil, &LimitError{Format: "phg", Quantity: "nets", Limit: lim.MaxNets}
			}
			pins = pins[:0]
			for _, t := range tok[2:] {
				idx, ok := parseInt(t)
				if !ok || idx < 0 || idx >= int64(b.NumNodes()) {
					return nil, fmt.Errorf("phg line %d: bad pin %q", lineNo, t)
				}
				pins = append(pins, hypergraph.NodeID(idx))
			}
			b.AddNet(string(tok[1]), pins...)
			nets++
		default:
			return nil, fmt.Errorf("phg line %d: unknown directive %q", lineNo, tok[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, lim.lineErr("phg", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("phg: missing header line")
	}
	return b.Build()
}

// WriteHgr serializes the hypergraph in hMETIS format with node weights
// (fmt code 10). Pads are written with weight 0 — a convention this package
// round-trips; standard hMETIS tools treat them as ordinary light nodes.
func WriteHgr(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d 10\n", h.NumNets(), h.NumNodes())
	for e := 0; e < h.NumNets(); e++ {
		pins := h.NetPins(hypergraph.NetID(e))
		for i, p := range pins {
			if i > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprint(bw, int(p)+1)
		}
		fmt.Fprintln(bw)
	}
	for i := 0; i < h.NumNodes(); i++ {
		fmt.Fprintln(bw, h.SizeOf(hypergraph.NodeID(i)))
	}
	return bw.Flush()
}

// ReadHgr parses hMETIS format, accepting fmt codes 0 (unweighted) and 10
// (node weights). Weight-0 nodes become pads; all others are interior.
// DefaultLimits apply; use ReadHgrLimits for untrusted input.
func ReadHgr(r io.Reader) (*hypergraph.Hypergraph, error) {
	return ReadHgrLimits(r, Limits{})
}

// ReadHgrLimits parses hMETIS input under the given parser limits. The
// header's declared node and net counts are validated against the limits
// before any proportional allocation happens; exceeding a cap returns a
// *LimitError. Zero Limits fields select DefaultLimits.
func ReadHgrLimits(r io.Reader, lim Limits) (*hypergraph.Hypergraph, error) {
	lim = lim.normalize()
	sc := bufio.NewScanner(r)
	lim.bufferFor(sc)
	var tok [][]byte
	readLine := func() ([][]byte, error) {
		for sc.Scan() {
			tok = fields(tok[:0], sc.Bytes())
			if len(tok) == 0 || tok[0][0] == '%' {
				continue
			}
			return tok, nil
		}
		if err := sc.Err(); err != nil {
			return nil, lim.lineErr("hgr", err)
		}
		return nil, io.EOF
	}
	header, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("hgr: %w", err)
	}
	if len(header) < 2 || len(header) > 3 {
		return nil, fmt.Errorf("hgr: header wants 2 or 3 fields, got %d", len(header))
	}
	nNets, ok1 := parseInt(header[0])
	nNodes, ok2 := parseInt(header[1])
	if !ok1 || !ok2 || nNets < 0 || nNodes <= 0 {
		return nil, fmt.Errorf("hgr: bad header %s", header)
	}
	if nNodes > int64(lim.MaxNodes) {
		return nil, &LimitError{Format: "hgr", Quantity: "nodes", Limit: lim.MaxNodes}
	}
	if nNets > int64(lim.MaxNets) {
		return nil, &LimitError{Format: "hgr", Quantity: "nets", Limit: lim.MaxNets}
	}
	format := "0"
	if len(header) == 3 {
		format = string(header[2])
	}
	if format != "0" && format != "10" {
		return nil, fmt.Errorf("hgr: unsupported fmt %q (net weights not supported)", format)
	}

	// The nets are staged in one flat slab: net e's pins are
	// pins[ends[e-1]:ends[e]].
	var pins []hypergraph.NodeID
	ends := make([]int, 0, nNets)
	for e := 0; e < int(nNets); e++ {
		toks, err := readLine()
		if err != nil {
			return nil, fmt.Errorf("hgr: net %d: %w", e+1, err)
		}
		if len(toks) > lim.MaxPins {
			return nil, &LimitError{Format: "hgr", Quantity: "pins", Limit: lim.MaxPins}
		}
		for _, t := range toks {
			idx, ok := parseInt(t)
			if !ok || idx < 1 || idx > nNodes {
				return nil, fmt.Errorf("hgr: net %d: bad pin %q", e+1, t)
			}
			pins = append(pins, hypergraph.NodeID(idx-1))
		}
		ends = append(ends, len(pins))
	}
	weights := make([]int, nNodes)
	for i := range weights {
		weights[i] = 1
	}
	if format == "10" {
		for i := range weights {
			toks, err := readLine()
			if err != nil {
				return nil, fmt.Errorf("hgr: weight %d: %w", i+1, err)
			}
			// Weights become int32 node sizes: wider values are
			// rejected rather than wrapped.
			wgt, ok := parseInt32(toks[0])
			if !ok || wgt < 0 {
				return nil, fmt.Errorf("hgr: weight %d: bad value %q", i+1, toks[0])
			}
			weights[i] = int(wgt)
		}
	}
	var b hypergraph.Builder
	var name []byte
	for i, w := range weights {
		if w == 0 {
			name = strconv.AppendInt(append(name[:0], 'p'), int64(i+1), 10)
			b.AddPad(string(name))
		} else {
			name = strconv.AppendInt(append(name[:0], 'v'), int64(i+1), 10)
			b.AddInterior(string(name), w)
		}
	}
	start := 0
	for e, end := range ends {
		name = strconv.AppendInt(append(name[:0], 'e'), int64(e+1), 10)
		b.AddNet(string(name), pins[start:end]...)
		start = end
	}
	return b.Build()
}
