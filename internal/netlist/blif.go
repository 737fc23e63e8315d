package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"fpart/internal/hypergraph"
)

// BlifCircuit is the structural content of a parsed BLIF model: gates
// (.names), latches (.latch), and the primary I/O lists. Cube tables are
// discarded — partitioning needs connectivity, not logic.
type BlifCircuit struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []BlifGate
	Latches []BlifLatch
}

// BlifGate is one .names record: a single-output logic function.
type BlifGate struct {
	Inputs []string
	Output string
}

// BlifLatch is one .latch record.
type BlifLatch struct {
	Input, Output string
}

// ReadBLIF parses the structural BLIF subset:
// .model, .inputs, .outputs, .names, .latch, .end, with '\' continuations
// and '#' comments. .gate/.subckt and multiple models are rejected.
// DefaultLimits apply; use ReadBLIFLimits for untrusted input.
func ReadBLIF(r io.Reader) (*BlifCircuit, error) {
	return ReadBLIFLimits(r, Limits{})
}

// ReadBLIFLimits parses BLIF input under the given parser limits: logical
// lines (after continuation joining) are capped at MaxLineBytes, the total
// element count (gates + latches + primary I/Os) at MaxNodes, and the fanin
// of one .names record at MaxPins. Exceeding a cap returns a *LimitError.
// Zero Limits fields select DefaultLimits.
func ReadBLIFLimits(r io.Reader, lim Limits) (*BlifCircuit, error) {
	lim = lim.normalize()
	sc := bufio.NewScanner(r)
	lim.bufferFor(sc)
	c := &BlifCircuit{}
	sawModel := false
	lineNo := 0
	elements := 0
	var limErr *LimitError

	addElements := func(n int) bool {
		elements += n
		if elements > lim.MaxNodes {
			limErr = &LimitError{Format: "blif", Quantity: "nodes", Limit: lim.MaxNodes}
			return false
		}
		return true
	}

	nextLogical := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			for strings.HasSuffix(line, "\\") {
				line = strings.TrimSuffix(line, "\\")
				if !sc.Scan() {
					break
				}
				lineNo++
				cont := sc.Text()
				if i := strings.IndexByte(cont, '#'); i >= 0 {
					cont = cont[:i]
				}
				line += " " + strings.TrimSpace(cont)
				if len(line) > lim.MaxLineBytes {
					limErr = &LimitError{Format: "blif", Quantity: "line bytes", Limit: lim.MaxLineBytes}
					return "", false
				}
			}
			return line, true
		}
		return "", false
	}

	for {
		line, ok := nextLogical()
		if !ok {
			break
		}
		if !strings.HasPrefix(line, ".") {
			continue // cube rows of the preceding .names
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if sawModel {
				return nil, fmt.Errorf("blif line %d: multiple models not supported", lineNo)
			}
			sawModel = true
			if len(fields) > 1 {
				c.Name = fields[1]
			}
		case ".inputs":
			if !addElements(len(fields) - 1) {
				return nil, limErr
			}
			c.Inputs = append(c.Inputs, fields[1:]...)
		case ".outputs":
			if !addElements(len(fields) - 1) {
				return nil, limErr
			}
			c.Outputs = append(c.Outputs, fields[1:]...)
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif line %d: .names needs at least an output", lineNo)
			}
			if len(fields)-2 > lim.MaxPins {
				return nil, &LimitError{Format: "blif", Quantity: "pins", Limit: lim.MaxPins}
			}
			if !addElements(1) {
				return nil, limErr
			}
			g := BlifGate{Output: fields[len(fields)-1]}
			g.Inputs = append(g.Inputs, fields[1:len(fields)-1]...)
			c.Gates = append(c.Gates, g)
		case ".latch":
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif line %d: .latch needs input and output", lineNo)
			}
			if !addElements(1) {
				return nil, limErr
			}
			c.Latches = append(c.Latches, BlifLatch{Input: fields[1], Output: fields[2]})
		case ".end":
			// done with the model
		case ".gate", ".subckt", ".mlatch":
			return nil, fmt.Errorf("blif line %d: %s not supported (structural subset)", lineNo, fields[0])
		default:
			// Unknown dot-directives (.clock, .default_input_arrival, ...)
			// are ignored for structural purposes.
		}
	}
	if limErr != nil {
		return nil, limErr
	}
	if err := sc.Err(); err != nil {
		return nil, lim.lineErr("blif", err)
	}
	if !sawModel {
		return nil, fmt.Errorf("blif: no .model found")
	}
	return c, nil
}

// Hypergraph lowers the BLIF circuit to a gate-level hypergraph: one
// interior node per gate/latch (unit size), one pad per primary input and
// output, and one net per signal connecting its driver to all its readers.
// Signals with a single connection produce no net. Undriven signals are
// tolerated (common in benchmark BLIFs with implicit constants).
func (c *BlifCircuit) Hypergraph() (*hypergraph.Hypergraph, error) {
	var b hypergraph.Builder
	// signal -> node IDs attached to it
	attach := make(map[string][]hypergraph.NodeID)
	add := func(sig string, id hypergraph.NodeID) {
		attach[sig] = append(attach[sig], id)
	}
	for _, in := range c.Inputs {
		add(in, b.AddPad("pi:"+in))
	}
	outPads := make(map[string]hypergraph.NodeID, len(c.Outputs))
	for _, out := range c.Outputs {
		id := b.AddPad("po:" + out)
		outPads[out] = id
		add(out, id)
	}
	for _, g := range c.Gates {
		id := b.AddInterior("g:"+g.Output, 1)
		add(g.Output, id)
		for _, in := range g.Inputs {
			add(in, id)
		}
	}
	for _, l := range c.Latches {
		id := b.AddInterior("ff:"+l.Output, 1)
		b.SetResource(id, "FF", 1) // one flip-flop, capped by the device's FF axis
		add(l.Output, id)
		add(l.Input, id)
	}
	// Deterministic net order: iterate signals in first-appearance order.
	order := make([]string, 0, len(attach))
	seen := make(map[string]bool)
	appendSig := func(s string) {
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	for _, in := range c.Inputs {
		appendSig(in)
	}
	for _, g := range c.Gates {
		appendSig(g.Output)
		for _, in := range g.Inputs {
			appendSig(in)
		}
	}
	for _, l := range c.Latches {
		appendSig(l.Output)
		appendSig(l.Input)
	}
	for _, out := range c.Outputs {
		appendSig(out)
	}
	for _, sig := range order {
		ids := attach[sig]
		if len(ids) >= 2 {
			b.AddNet(sig, ids...)
		}
	}
	return b.Build()
}
