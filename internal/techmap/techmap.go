// Package techmap packs a gate-level BLIF circuit into CLB-level nodes for
// a Xilinx architecture generation, the flow stage that produces the two
// mapped variants of each benchmark in Table 1 of the FPART paper (XC2000:
// 4-input CLBs, XC3000: 5-input CLBs — the same circuit maps to fewer
// XC3000 CLBs).
//
// The mapper is a greedy dependency-order packer: gates are visited in
// topological order and merged into the cluster of one of their fanin
// drivers whenever the merged cluster still satisfies the CLB's distinct
// input bound, output bound, and flip-flop capacity. Latches prefer the
// cluster of their D-input driver (the classic LUT+FF pairing). This is not
// a delay-optimal mapper (FlowMap); it reproduces the *area* behaviour that
// matters for partitioning: bigger K ⇒ fewer CLBs.
package techmap

import (
	"errors"
	"fmt"

	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
)

// Arch describes one CLB architecture.
type Arch struct {
	Name string
	// K is the number of distinct input signals a CLB can consume.
	K int
	// Outputs is the number of signals a CLB can drive.
	Outputs int
	// FFs is the number of flip-flops a CLB provides.
	FFs int
}

// The two architectures of the paper's Table 1.
var (
	XC2000Arch = Arch{Name: "XC2000", K: 4, Outputs: 2, FFs: 1}
	XC3000Arch = Arch{Name: "XC3000", K: 5, Outputs: 2, FFs: 2}
)

// cell is one gate or latch of the input circuit.
type cell struct {
	out    string
	ins    []string
	isFF   bool
	placed int // cluster index, -1 unplaced
}

// Mapped is the result of technology mapping.
type Mapped struct {
	Arch Arch
	// Clusters lists, per CLB, the indices of the packed cells.
	Clusters [][]int
	circuit  *netlist.BlifCircuit
	cells    []cell
}

// NumCLBs returns the number of CLBs used.
func (m *Mapped) NumCLBs() int { return len(m.Clusters) }

// Circuit returns the BLIF circuit the mapping was built from.
func (m *Mapped) Circuit() *netlist.BlifCircuit { return m.circuit }

// CLBCell exposes one packed cell's signal connectivity for downstream
// passes (e.g., functional replication) that need direction information.
type CLBCell struct {
	Output string
	Inputs []string
	IsFF   bool
}

// CellsPerCLB returns the packed cells of every CLB.
func (m *Mapped) CellsPerCLB() [][]CLBCell {
	out := make([][]CLBCell, len(m.Clusters))
	for ci, members := range m.Clusters {
		for _, mi := range members {
			c := &m.cells[mi]
			out[ci] = append(out[ci], CLBCell{
				Output: c.out,
				Inputs: append([]string(nil), c.ins...),
				IsFF:   c.isFF,
			})
		}
	}
	return out
}

// Map packs the circuit for the given architecture.
func Map(c *netlist.BlifCircuit, arch Arch) (*Mapped, error) {
	if arch.K < 1 || arch.Outputs < 1 {
		return nil, fmt.Errorf("techmap: degenerate architecture %+v", arch)
	}
	var cells []cell
	driver := map[string]int{} // signal -> driving cell
	for _, g := range c.Gates {
		if len(g.Inputs) > arch.K {
			return nil, fmt.Errorf("techmap: gate %q has %d inputs > K=%d (decompose first)",
				g.Output, len(g.Inputs), arch.K)
		}
		driver[g.Output] = len(cells)
		cells = append(cells, cell{out: g.Output, ins: g.Inputs, placed: -1})
	}
	for _, l := range c.Latches {
		if _, dup := driver[l.Output]; dup {
			return nil, fmt.Errorf("techmap: signal %q driven twice", l.Output)
		}
		driver[l.Output] = len(cells)
		cells = append(cells, cell{out: l.Output, ins: []string{l.Input}, isFF: true, placed: -1})
	}
	primary := map[string]bool{}
	for _, in := range c.Inputs {
		primary[in] = true
	}
	consumers := map[string][]int{} // signal -> consuming cells
	for i := range cells {
		for _, in := range cells[i].ins {
			consumers[in] = append(consumers[in], i)
		}
	}
	outputs := map[string]bool{}
	for _, o := range c.Outputs {
		outputs[o] = true
	}

	order, err := topoOrder(cells, driver)
	if err != nil {
		return nil, err
	}

	m := &Mapped{Arch: arch, circuit: c, cells: cells}

	// clusterInputs computes the distinct external input signals, internal
	// FF count, and external output count of a tentative cluster.
	feasible := func(members []int) bool {
		inCluster := map[int]bool{}
		for _, ci := range members {
			inCluster[ci] = true
		}
		ins := map[string]bool{}
		ffs, outs := 0, 0
		for _, ci := range members {
			cl := &cells[ci]
			if cl.isFF {
				ffs++
			}
			for _, s := range cl.ins {
				if d, ok := driver[s]; ok && inCluster[d] {
					continue // internally produced
				}
				ins[s] = true
			}
			// The cell's output escapes when a consumer outside the
			// cluster, or a primary output, reads it.
			escapes := outputs[cl.out]
			for _, consumer := range consumers[cl.out] {
				if !inCluster[consumer] {
					escapes = true
					break
				}
			}
			if escapes {
				outs++
			}
		}
		return len(ins) <= arch.K && outs <= arch.Outputs && ffs <= arch.FFs
	}

	for _, ci := range order {
		cl := &cells[ci]
		// Candidate clusters: those of fanin drivers, preferring the one
		// whose merge leaves the fewest distinct inputs.
		bestCluster := -1
		for _, s := range cl.ins {
			d, ok := driver[s]
			if !ok || cells[d].placed < 0 {
				continue
			}
			cand := cells[d].placed
			if cand == bestCluster {
				continue
			}
			merged := append(append([]int{}, m.Clusters[cand]...), ci)
			if feasible(merged) {
				bestCluster = cand
				break // first feasible fanin cluster in input order: deterministic
			}
		}
		if bestCluster >= 0 {
			m.Clusters[bestCluster] = append(m.Clusters[bestCluster], ci)
			cl.placed = bestCluster
		} else {
			if !feasible([]int{ci}) {
				return nil, fmt.Errorf("techmap: cell %q does not fit an empty CLB", cl.out)
			}
			cl.placed = len(m.Clusters)
			m.Clusters = append(m.Clusters, []int{ci})
		}
	}
	return m, nil
}

// topoOrder orders cells so combinational fanins come first. Latch outputs
// are sequential sources and impose no ordering. A combinational cycle is
// an error.
func topoOrder(cells []cell, driver map[string]int) ([]int, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(cells))
	var order []int
	var visit func(i int) error
	visit = func(i int) error {
		if color[i] == black {
			return nil
		}
		if color[i] == gray {
			return errors.New("techmap: combinational cycle")
		}
		color[i] = gray
		if !cells[i].isFF { // latches are sequential barriers
			for _, s := range cells[i].ins {
				if d, ok := driver[s]; ok && !cells[d].isFF {
					if err := visit(d); err != nil {
						return err
					}
				}
			}
		}
		color[i] = black
		order = append(order, i)
		return nil
	}
	for i := range cells {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Hypergraph lowers the mapped circuit to a CLB-level hypergraph: one
// interior node of size 1 per CLB, one pad per primary input/output, and a
// net per signal that crosses a CLB boundary (or reaches a pad).
func (m *Mapped) Hypergraph() (*hypergraph.Hypergraph, error) {
	var b hypergraph.Builder
	clbNode := make([]hypergraph.NodeID, len(m.Clusters))
	for i, members := range m.Clusters {
		clbNode[i] = b.AddInterior(fmt.Sprintf("clb%d", i), 1)
		ffs := 0
		for _, ci := range members {
			if m.cells[ci].isFF {
				ffs++
			}
		}
		b.SetResource(clbNode[i], "FF", ffs)
	}
	attach := map[string][]hypergraph.NodeID{}
	var order []string
	seen := map[string]bool{}
	add := func(sig string, id hypergraph.NodeID) {
		attach[sig] = append(attach[sig], id)
		if !seen[sig] {
			seen[sig] = true
			order = append(order, sig)
		}
	}
	for _, in := range m.circuit.Inputs {
		add(in, b.AddPad("pi:"+in))
	}
	for _, out := range m.circuit.Outputs {
		add(out, b.AddPad("po:"+out))
	}
	driver := map[string]int{}
	for i, c := range m.cells {
		driver[c.out] = i
	}
	for ci, members := range m.Clusters {
		inCluster := map[int]bool{}
		for _, mi := range members {
			inCluster[mi] = true
		}
		touched := map[string]bool{}
		for _, mi := range members {
			c := &m.cells[mi]
			// Inputs sourced outside the cluster attach the CLB to the net.
			for _, s := range c.ins {
				if d, ok := driver[s]; ok && inCluster[d] {
					continue
				}
				if !touched[s] {
					touched[s] = true
					add(s, clbNode[ci])
				}
			}
			// Outputs always attach (consumers decide whether a net forms).
			if !touched[c.out] {
				touched[c.out] = true
				add(c.out, clbNode[ci])
			}
		}
	}
	for _, sig := range order {
		ids := attach[sig]
		// Dedup while preserving order.
		uniq := ids[:0:0]
		had := map[hypergraph.NodeID]bool{}
		for _, id := range ids {
			if !had[id] {
				had[id] = true
				uniq = append(uniq, id)
			}
		}
		if len(uniq) >= 2 {
			b.AddNet(sig, uniq...)
		}
	}
	return b.Build()
}
