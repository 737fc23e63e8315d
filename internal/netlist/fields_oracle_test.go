package netlist

// The PHG and hMETIS readers as they were before the byte tokenizer:
// strings.Fields over one string per line, strconv for numbers. They are
// the oracle the differential fuzz targets compare ReadPHGLimits and
// ReadHgrLimits against.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpart/internal/hypergraph"
)

// readPHGFields is the strings.Fields PHG reader.
func readPHGFields(r io.Reader, lim Limits) (*hypergraph.Hypergraph, error) {
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

// readHgrFields is the strings.Fields hMETIS reader.
func readHgrFields(r io.Reader, lim Limits) (*hypergraph.Hypergraph, error) {
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
