// Package replicate implements functional logic replication as a
// post-partitioning optimization: copying a CLB into a consuming device so
// the signals it drives no longer cross into that device. Replication is
// the technique behind the r+p.0 and PROP competitors of the FPART paper
// ([11], [12]); the paper itself skips it because replication "depends on
// whether such functional information is available in the used input
// format" (§1) — the undirected netlists it consumes cannot tell driver
// from sink. This repository's BLIF → techmap flow retains direction, so
// the technique applies to circuits entering through that path.
//
// The pass is a greedy gain loop per block: replicating CLB c into block B
// removes the crossings of c's escaping output signals that B consumes and
// adds crossings for c's input signals not already available in B;
// candidates are applied while the net terminal reduction is positive and
// the block has logic/flip-flop headroom. The original copy always remains
// in its own block (cut-down replication that *moves* logic is plain
// repartitioning, handled elsewhere).
package replicate

import (
	"fmt"
	"sort"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
	"fpart/internal/techmap"
)

// signalInfo records one signal's directed connectivity at CLB level.
// Driver and consumers are expressed as hypergraph node IDs of the mapped
// circuit (CLBs first, then pads — the layout techmap.Mapped.Hypergraph
// produces).
type signalInfo struct {
	name      string
	driver    hypergraph.NodeID // CLB or PI pad; -1 when undriven
	consumers []hypergraph.NodeID
}

// Result describes the replication outcome.
type Result struct {
	// Replicas lists, per block, the CLB node IDs copied into it.
	Replicas map[partition.BlockID][]hypergraph.NodeID
	// TerminalsBefore and TerminalsAfter are per-block terminal counts
	// under the directed signal model.
	TerminalsBefore, TerminalsAfter map[partition.BlockID]int
	// CopiesAdded is the total logic overhead in CLBs.
	CopiesAdded int
	// Feasible reports whether every block still meets the device
	// constraints after replication (it held before by precondition).
	Feasible bool
}

// TotalReduction sums the per-block terminal reductions.
func (r *Result) TotalReduction() int {
	t := 0
	for b, before := range r.TerminalsBefore {
		t += before - r.TerminalsAfter[b]
	}
	return t
}

// engine carries the directed model.
type engine struct {
	h       *hypergraph.Hypergraph
	p       *partition.Partition
	dev     device.Device
	signals []signalInfo
	// drives[clb] lists signal indices driven by the CLB.
	drives map[hypergraph.NodeID][]int
	// inputsOf[clb] lists signal indices consumed by the CLB.
	inputsOf map[hypergraph.NodeID][]int
	// inputSet[clb] is the set of signal indices the CLB consumes.
	inputSet map[hypergraph.NodeID]map[int]bool
	// replicated[b][clb] marks replicas.
	replicated map[partition.BlockID]map[hypergraph.NodeID]bool
	// replicaNeeds[b] is the set of signals consumed by replicas in b.
	replicaNeeds map[partition.BlockID]map[int]bool
	// extraSize/extraRes accumulate replica overhead per block: size, and
	// demand per resource axis of the partition's device (p.NumRes() long).
	extraSize map[partition.BlockID]int
	extraRes  map[partition.BlockID][]int
}

// Reduce runs the replication pass. The partition must be over the exact
// hypergraph produced by m.Hypergraph(), with every block feasible.
func Reduce(m *techmap.Mapped, h *hypergraph.Hypergraph, p *partition.Partition, dev device.Device) (*Result, error) {
	sigs, err := extractSignals(m, h)
	if err != nil {
		return nil, err
	}
	e := &engine{
		h: h, p: p, dev: dev, signals: sigs,
		drives:       map[hypergraph.NodeID][]int{},
		inputsOf:     map[hypergraph.NodeID][]int{},
		inputSet:     map[hypergraph.NodeID]map[int]bool{},
		replicated:   map[partition.BlockID]map[hypergraph.NodeID]bool{},
		replicaNeeds: map[partition.BlockID]map[int]bool{},
		extraSize:    map[partition.BlockID]int{},
		extraRes:     map[partition.BlockID][]int{},
	}
	for si, s := range e.signals {
		if s.driver >= 0 && h.Node(s.driver).Kind == hypergraph.Interior {
			e.drives[s.driver] = append(e.drives[s.driver], si)
		}
		for _, c := range s.consumers {
			if h.Node(c).Kind == hypergraph.Interior {
				e.inputsOf[c] = append(e.inputsOf[c], si)
				if e.inputSet[c] == nil {
					e.inputSet[c] = map[int]bool{}
				}
				e.inputSet[c][si] = true
			}
		}
	}

	res := &Result{
		Replicas:        map[partition.BlockID][]hypergraph.NodeID{},
		TerminalsBefore: map[partition.BlockID]int{},
		TerminalsAfter:  map[partition.BlockID]int{},
	}
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if p.Nodes(id) > 0 {
			res.TerminalsBefore[id] = e.blockTerminals(id)
		}
	}

	// Greedy loop per block, blocks in ID order for determinism.
	for b := range res.TerminalsBefore {
		e.reduceBlock(b, res)
	}

	res.Feasible = true
	for b := range res.TerminalsBefore {
		after := e.blockTerminals(b)
		res.TerminalsAfter[b] = after
		size := p.Size(b) + e.extraSize[b]
		if !dev.Fits(size, after) || !e.resFits(b, -1) {
			res.Feasible = false
		}
	}
	return res, nil
}

// reduceBlock replicates into block b while a candidate strictly reduces
// its terminals.
func (e *engine) reduceBlock(b partition.BlockID, res *Result) {
	for {
		cur := e.blockTerminals(b)
		var best hypergraph.NodeID = -1
		bestAfter := cur
		for _, cand := range e.candidates(b) {
			if e.p.Size(b)+e.extraSize[b]+e.h.Node(cand).Size > e.dev.SMax() {
				continue
			}
			if !e.resFits(b, cand) {
				continue
			}
			after := e.terminalsWith(b, cand)
			if after < bestAfter || (after == bestAfter && best >= 0 && cand < best && after < cur) {
				best, bestAfter = cand, after
			}
		}
		if best < 0 || bestAfter >= cur {
			return
		}
		if e.replicated[b] == nil {
			e.replicated[b] = map[hypergraph.NodeID]bool{}
		}
		e.replicated[b][best] = true
		if e.replicaNeeds[b] == nil {
			e.replicaNeeds[b] = map[int]bool{}
		}
		for si := range e.inputSet[best] {
			e.replicaNeeds[b][si] = true
		}
		e.extraSize[b] += e.h.Node(best).Size
		if nr := e.p.NumRes(); nr > 0 {
			if e.extraRes[b] == nil {
				e.extraRes[b] = make([]int, nr)
			}
			for r := range e.extraRes[b] {
				e.extraRes[b][r] += e.p.ResDemandOf(best, r)
			}
		}
		res.Replicas[b] = append(res.Replicas[b], best)
		res.CopiesAdded++
	}
}

// resFits reports whether block b, with its replicas and one more replica
// of cand (none when cand < 0), stays within every resource axis cap.
func (e *engine) resFits(b partition.BlockID, cand hypergraph.NodeID) bool {
	extra := e.extraRes[b]
	for r := 0; r < e.p.NumRes(); r++ {
		d := e.p.Res(b, r)
		if extra != nil {
			d += extra[r]
		}
		if cand >= 0 {
			d += e.p.ResDemandOf(cand, r)
		}
		if d > e.p.ResCap(r) {
			return false
		}
	}
	return true
}

// candidates lists CLBs outside b that drive at least one signal b
// consumes across its boundary.
func (e *engine) candidates(b partition.BlockID) []hypergraph.NodeID {
	set := map[hypergraph.NodeID]bool{}
	for si := range e.signals {
		s := &e.signals[si]
		if s.driver < 0 || e.h.Node(s.driver).Kind != hypergraph.Interior {
			continue
		}
		if e.available(si, b) {
			continue
		}
		if !e.consumedIn(si, b) && !e.replicaNeeds[b][si] {
			continue
		}
		if e.replicated[b][s.driver] {
			continue
		}
		set[s.driver] = true
	}
	out := make([]hypergraph.NodeID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// available reports whether signal si is produced inside block b (original
// driver or replica, CLB or PI pad).
func (e *engine) available(si int, b partition.BlockID) bool {
	s := &e.signals[si]
	if s.driver < 0 {
		return false
	}
	if e.p.Block(s.driver) == b {
		return true
	}
	return e.replicated[b][s.driver]
}

// consumedIn reports whether any consumer of si sits in block b.
func (e *engine) consumedIn(si int, b partition.BlockID) bool {
	for _, c := range e.signals[si].consumers {
		if e.p.Block(c) == b {
			return true
		}
	}
	return false
}

// blockTerminals evaluates block b's terminal count under the directed
// model: inbound unavailable consumed signals + outbound driven signals
// still needed elsewhere + physical pads assigned to b.
func (e *engine) blockTerminals(b partition.BlockID) int {
	return e.terminalsWith(b, -1)
}

// terminalsWith evaluates blockTerminals(b) as if extra (when >= 0) were
// additionally replicated into b. Replica inputs count as consumption in
// their block, and other blocks' replica inputs keep a driver's signal
// exported.
func (e *engine) terminalsWith(b partition.BlockID, extra hypergraph.NodeID) int {
	avail := func(si int) bool {
		if e.available(si, b) {
			return true
		}
		return extra >= 0 && e.signals[si].driver == extra
	}
	consumed := func(si int) bool {
		if e.consumedIn(si, b) || e.replicaNeeds[b][si] {
			return true
		}
		return extra >= 0 && e.inputSet[extra][si]
	}
	term := e.p.Pads(b)
	for si := range e.signals {
		s := &e.signals[si]
		if consumed(si) && !avail(si) {
			term++ // inbound
			continue
		}
		// Outbound: b drives s (original copy only; replicas never export)
		// and some other block still needs it — through an original
		// consumer or a replica input. Pad-driven signals count too,
		// matching the partition model's incidence accounting.
		if s.driver >= 0 && e.p.Block(s.driver) == b {
			needed := false
			for _, c := range s.consumers {
				cb := e.p.Block(c)
				if cb == b {
					continue
				}
				if !e.available(si, cb) {
					needed = true
					break
				}
			}
			if !needed {
				for ob, needs := range e.replicaNeeds {
					if ob != b && needs[si] && !e.available(si, ob) {
						needed = true
						break
					}
				}
			}
			if needed {
				term++
			}
		}
	}
	return term
}

// extractSignals rebuilds the directed signal list from the mapped circuit
// and checks it matches the hypergraph's node layout.
func extractSignals(m *techmap.Mapped, h *hypergraph.Hypergraph) ([]signalInfo, error) {
	circ := m.Circuit()
	if m.NumCLBs() > h.NumNodes() {
		return nil, fmt.Errorf("replicate: hypergraph/mapped mismatch: %d CLBs > %d nodes", m.NumCLBs(), h.NumNodes())
	}
	// Node layout from Mapped.Hypergraph: CLBs 0..NumCLBs-1, then PI pads
	// in input order, then PO pads in output order.
	padID := map[string]hypergraph.NodeID{}
	next := hypergraph.NodeID(m.NumCLBs())
	for _, in := range circ.Inputs {
		padID["pi:"+in] = next
		next++
	}
	for _, out := range circ.Outputs {
		padID["po:"+out] = next
		next++
	}
	if int(next) != h.NumNodes() {
		return nil, fmt.Errorf("replicate: hypergraph has %d nodes, expected %d", h.NumNodes(), next)
	}

	// Signal driver/consumer sets at CLB granularity.
	type sigRec struct {
		driver    hypergraph.NodeID
		consumers map[hypergraph.NodeID]bool
	}
	recs := map[string]*sigRec{}
	order := []string{}
	get := func(name string) *sigRec {
		r, ok := recs[name]
		if !ok {
			r = &sigRec{driver: -1, consumers: map[hypergraph.NodeID]bool{}}
			recs[name] = r
			order = append(order, name)
		}
		return r
	}
	for _, in := range circ.Inputs {
		get(in).driver = padID["pi:"+in]
	}
	for _, out := range circ.Outputs {
		get(out).consumers[padID["po:"+out]] = true
	}
	for ci, clb := range m.CellsPerCLB() {
		clbNode := hypergraph.NodeID(ci)
		for _, cell := range clb {
			r := get(cell.Output)
			if r.driver < 0 || r.driver == clbNode {
				r.driver = clbNode
			} else if h.Node(r.driver).Kind == hypergraph.Pad {
				// A gate re-driving a PI name would be a malformed circuit;
				// keep the pad driver and treat the gate as a consumer-less
				// duplicate.
			} else {
				r.driver = clbNode // intra-CLB duplicates resolved to the CLB
			}
			for _, in := range cell.Inputs {
				get(in).consumers[clbNode] = true
			}
		}
	}
	out := make([]signalInfo, 0, len(order))
	for _, name := range order {
		r := recs[name]
		cs := make([]hypergraph.NodeID, 0, len(r.consumers))
		for c := range r.consumers {
			if c != r.driver { // self-consumption is internal
				cs = append(cs, c)
			}
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		out = append(out, signalInfo{name: name, driver: r.driver, consumers: cs})
	}
	return out, nil
}
