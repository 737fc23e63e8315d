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
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "phg")
	fmt.Fprintf(bw, "# nodes=%d nets=%d\n", h.NumNodes(), h.NumNets())
	resNames := h.ResourceNames()
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

func sanitizeName(name string, fallback int) string {
	if name == "" {
		return fmt.Sprintf("_%d", fallback)
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
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
	var b hypergraph.Builder
	lineNo := 0
	sawHeader := false
	nets := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "phg":
			sawHeader = true
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("phg line %d: node wants 2 args", lineNo)
			}
			// Sizes and demands are packed into int32 columns: wider
			// values are rejected rather than wrapped.
			size, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil || size < 1 {
				return nil, fmt.Errorf("phg line %d: bad size %q", lineNo, fields[2])
			}
			if b.NumNodes() >= lim.MaxNodes {
				return nil, &LimitError{Format: "phg", Quantity: "nodes", Limit: lim.MaxNodes}
			}
			id := b.AddInterior(fields[1], int(size))
			// Optional trailing NAME:DEMAND resource tokens.
			for _, tok := range fields[3:] {
				name, demStr, ok := strings.Cut(tok, ":")
				if !ok || name == "" {
					return nil, fmt.Errorf("phg line %d: bad resource token %q (want NAME:DEMAND)", lineNo, tok)
				}
				dem, err := strconv.ParseInt(demStr, 10, 32)
				if err != nil || dem < 0 {
					return nil, fmt.Errorf("phg line %d: bad resource demand %q", lineNo, tok)
				}
				b.SetResource(id, name, int(dem))
			}
		case "pad":
			if len(fields) != 2 {
				return nil, fmt.Errorf("phg line %d: pad wants 1 arg", lineNo)
			}
			if b.NumNodes() >= lim.MaxNodes {
				return nil, &LimitError{Format: "phg", Quantity: "nodes", Limit: lim.MaxNodes}
			}
			b.AddPad(fields[1])
		case "net":
			if len(fields) < 3 {
				return nil, fmt.Errorf("phg line %d: net wants a name and pins", lineNo)
			}
			if len(fields)-2 > lim.MaxPins {
				return nil, &LimitError{Format: "phg", Quantity: "pins", Limit: lim.MaxPins}
			}
			if nets >= lim.MaxNets {
				return nil, &LimitError{Format: "phg", Quantity: "nets", Limit: lim.MaxNets}
			}
			pins := make([]hypergraph.NodeID, 0, len(fields)-2)
			for _, f := range fields[2:] {
				idx, err := strconv.Atoi(f)
				if err != nil || idx < 0 || idx >= b.NumNodes() {
					return nil, fmt.Errorf("phg line %d: bad pin %q", lineNo, f)
				}
				pins = append(pins, hypergraph.NodeID(idx))
			}
			b.AddNet(fields[1], pins...)
			nets++
		default:
			return nil, fmt.Errorf("phg line %d: unknown directive %q", lineNo, fields[0])
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
	readLine := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "%") {
				continue
			}
			return strings.Fields(line), nil
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
	nNets, err1 := strconv.Atoi(header[0])
	nNodes, err2 := strconv.Atoi(header[1])
	if err1 != nil || err2 != nil || nNets < 0 || nNodes <= 0 {
		return nil, fmt.Errorf("hgr: bad header %v", header)
	}
	if nNodes > lim.MaxNodes {
		return nil, &LimitError{Format: "hgr", Quantity: "nodes", Limit: lim.MaxNodes}
	}
	if nNets > lim.MaxNets {
		return nil, &LimitError{Format: "hgr", Quantity: "nets", Limit: lim.MaxNets}
	}
	format := "0"
	if len(header) == 3 {
		format = header[2]
	}
	if format != "0" && format != "10" {
		return nil, fmt.Errorf("hgr: unsupported fmt %q (net weights not supported)", format)
	}

	type netRec []hypergraph.NodeID
	nets := make([]netRec, 0, nNets)
	for e := 0; e < nNets; e++ {
		fields, err := readLine()
		if err != nil {
			return nil, fmt.Errorf("hgr: net %d: %w", e+1, err)
		}
		if len(fields) > lim.MaxPins {
			return nil, &LimitError{Format: "hgr", Quantity: "pins", Limit: lim.MaxPins}
		}
		pins := make(netRec, 0, len(fields))
		for _, f := range fields {
			idx, err := strconv.Atoi(f)
			if err != nil || idx < 1 || idx > nNodes {
				return nil, fmt.Errorf("hgr: net %d: bad pin %q", e+1, f)
			}
			pins = append(pins, hypergraph.NodeID(idx-1))
		}
		nets = append(nets, pins)
	}
	weights := make([]int, nNodes)
	for i := range weights {
		weights[i] = 1
	}
	if format == "10" {
		for i := 0; i < nNodes; i++ {
			fields, err := readLine()
			if err != nil {
				return nil, fmt.Errorf("hgr: weight %d: %w", i+1, err)
			}
			// Weights become int32 node sizes: wider values are
			// rejected rather than wrapped.
			wgt, err := strconv.ParseInt(fields[0], 10, 32)
			if err != nil || wgt < 0 {
				return nil, fmt.Errorf("hgr: weight %d: bad value %q", i+1, fields[0])
			}
			weights[i] = int(wgt)
		}
	}
	var b hypergraph.Builder
	for i := 0; i < nNodes; i++ {
		if weights[i] == 0 {
			b.AddPad(fmt.Sprintf("p%d", i+1))
		} else {
			b.AddInterior(fmt.Sprintf("v%d", i+1), weights[i])
		}
	}
	for e, pins := range nets {
		b.AddNet(fmt.Sprintf("e%d", e+1), pins...)
	}
	return b.Build()
}
