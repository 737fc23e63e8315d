// Package hypergraph provides the circuit hypergraph substrate used by all
// partitioners in this repository.
//
// A circuit is modeled as a hypergraph H = ({X, Y}, E) following the problem
// definition of Krupnova & Saucier (DATE 1999, §2): X is the set of interior
// nodes (logic cells, each with a size in technology cells), Y is the set of
// terminal nodes (primary I/O pads, size zero), and E is the set of nets,
// each net connecting two or more nodes.
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a Hypergraph. IDs are dense, starting at 0.
type NodeID int32

// NetID identifies a net within a Hypergraph. IDs are dense, starting at 0.
type NetID int32

// NodeKind distinguishes interior logic nodes from terminal (pad) nodes.
type NodeKind uint8

const (
	// Interior marks a logic node; it occupies Size technology cells.
	Interior NodeKind = iota
	// Pad marks a primary I/O terminal node; it has size zero and consumes
	// one device terminal (IOB) in whichever block it is assigned to.
	Pad
)

// String returns "interior" or "pad".
func (k NodeKind) String() string {
	switch k {
	case Interior:
		return "interior"
	case Pad:
		return "pad"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is a vertex of the hypergraph: a logic cell or an I/O pad.
type Node struct {
	Name string
	Kind NodeKind
	// Size is the number of technology cells (CLBs) the node occupies.
	// It is zero for pads and at least one for interior nodes.
	Size int
	// Aux is the node's demand on the device's secondary resource —
	// flip-flops on Xilinx parts, tristate lines, etc. (§2 of the paper:
	// "handled in a similar way as the size constraint"). Zero for nodes
	// without such demand.
	Aux int
}

// Net is a hyperedge connecting two or more nodes.
type Net struct {
	Name string
	// Pins lists the nodes connected by the net, without duplicates.
	Pins []NodeID
}

// Hypergraph is an immutable-after-build circuit hypergraph. Build one with
// a Builder, or deserialize one with the netlist package.
//
// Internally the incidence structure is stored as two flat CSR
// (compressed sparse row) slabs built once at Build time: the pin lists of
// all nets concatenated into pinOfNet (indexed by netOff) and the transpose
// — the net lists of all nodes — concatenated into netOfNode (indexed by
// nodeOff). NodeNets and NetPins are zero-alloc views into these slabs, and
// every Net.Pins is repointed at its span of pinOfNet.
type Hypergraph struct {
	nodes []Node
	nets  []Net

	// CSR incidence slabs; see the type comment.
	pinOfNet  []NodeID
	netOff    []int32 // len nets+1; net e's pins are pinOfNet[netOff[e]:netOff[e+1]]
	netOfNode []NetID
	nodeOff   []int32 // len nodes+1; node v's nets are netOfNode[nodeOff[v]:nodeOff[v+1]]

	// Packed per-node attribute arrays: the hot paths read sizes, kinds,
	// and aux demands through these instead of pulling whole Node structs
	// (whose Name headers would waste cache lines) into the working set.
	nodeSize []int32
	nodeAux  []int32
	nodeKind []NodeKind

	// Named resource-demand columns (LUT/FF/DSP/...): resCols[i] is a
	// packed per-node demand array for the resource named resNames[i],
	// laid out like nodeSize. Columns exist only when the netlist declares
	// demands; circuits without them (every paper benchmark) carry none,
	// so the scalar R=1 paths never touch this memory. Names are sorted,
	// so column order is deterministic regardless of insertion order.
	resNames  []string
	resCols   [][]int32
	resTotals []int

	totalSize int
	totalAux  int
	numPads   int
	maxDegree int
}

// NumNodes returns the total node count (interior + pads).
func (h *Hypergraph) NumNodes() int { return len(h.nodes) }

// NumNets returns the net count.
func (h *Hypergraph) NumNets() int { return len(h.nets) }

// NumPads returns |Y0|, the number of terminal (pad) nodes.
func (h *Hypergraph) NumPads() int { return h.numPads }

// NumInterior returns |X0|, the number of interior nodes.
func (h *Hypergraph) NumInterior() int { return len(h.nodes) - h.numPads }

// TotalSize returns S0 = sum of interior node sizes.
func (h *Hypergraph) TotalSize() int { return h.totalSize }

// TotalAux returns the sum of secondary-resource demands over all nodes.
func (h *Hypergraph) TotalAux() int { return h.totalAux }

// MaxDegree returns the largest number of nets incident to any node.
func (h *Hypergraph) MaxDegree() int { return h.maxDegree }

// Node returns the node with the given ID. The returned pointer must be
// treated as read-only.
func (h *Hypergraph) Node(id NodeID) *Node { return &h.nodes[id] }

// Net returns the net with the given ID. The returned pointer must be
// treated as read-only.
func (h *Hypergraph) Net(id NetID) *Net { return &h.nets[id] }

// NodeNets returns the nets incident to node id, in ascending net order: a
// zero-alloc view into the flat transpose slab. The slice must not be
// modified.
func (h *Hypergraph) NodeNets(id NodeID) []NetID { return h.netOfNode[h.nodeOff[id]:h.nodeOff[id+1]] }

// NetPins returns the pins of net id: a zero-alloc view into the flat pin
// slab. The slice must not be modified.
func (h *Hypergraph) NetPins(id NetID) []NodeID { return h.pinOfNet[h.netOff[id]:h.netOff[id+1]] }

// Degree returns the number of nets incident to node id.
func (h *Hypergraph) Degree(id NodeID) int { return int(h.nodeOff[id+1] - h.nodeOff[id]) }

// NetDegree returns the number of pins on net id without touching the pin
// slab (one offset subtraction).
func (h *Hypergraph) NetDegree(id NetID) int { return int(h.netOff[id+1] - h.netOff[id]) }

// NumPins returns the total pin count Σ_e |pins(e)| — the length of the
// CSR pin slab.
func (h *Hypergraph) NumPins() int { return len(h.pinOfNet) }

// SizeOf returns the size of node v from the packed attribute array. It is
// the hot-path equivalent of Node(v).Size.
func (h *Hypergraph) SizeOf(v NodeID) int { return int(h.nodeSize[v]) }

// AuxOf returns the secondary-resource demand of node v from the packed
// attribute array. It is the hot-path equivalent of Node(v).Aux.
func (h *Hypergraph) AuxOf(v NodeID) int { return int(h.nodeAux[v]) }

// KindOf returns the kind of node v from the packed attribute array. It is
// the hot-path equivalent of Node(v).Kind.
func (h *Hypergraph) KindOf(v NodeID) NodeKind { return h.nodeKind[v] }

// ResourceNames lists the resource-demand columns present in the netlist,
// sorted. The slice must not be modified.
func (h *Hypergraph) ResourceNames() []string { return h.resNames }

// ResourceColumn returns the packed per-node demand array for the named
// resource, or nil when the netlist declares no such column (every node
// demands zero). The slice must not be modified.
func (h *Hypergraph) ResourceColumn(name string) []int32 {
	for i, n := range h.resNames {
		if n == name {
			return h.resCols[i]
		}
	}
	return nil
}

// TotalResource returns the summed demand for the named resource over all
// nodes (zero for unknown columns).
func (h *Hypergraph) TotalResource(name string) int {
	for i, n := range h.resNames {
		if n == name {
			return h.resTotals[i]
		}
	}
	return 0
}

// ResourceOf returns node v's demand for the named resource (zero when no
// such column exists). Hot paths bind ResourceColumn once instead.
func (h *Hypergraph) ResourceOf(v NodeID, name string) int {
	if col := h.ResourceColumn(name); col != nil {
		return int(col[v])
	}
	return 0
}

// NodeIDs returns all node IDs in increasing order.
func (h *Hypergraph) NodeIDs() []NodeID {
	ids := make([]NodeID, len(h.nodes))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// InteriorIDs returns the IDs of all interior nodes in increasing order.
func (h *Hypergraph) InteriorIDs() []NodeID {
	ids := make([]NodeID, 0, h.NumInterior())
	for i := range h.nodes {
		if h.nodes[i].Kind == Interior {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// PadIDs returns the IDs of all pad nodes in increasing order.
func (h *Hypergraph) PadIDs() []NodeID {
	ids := make([]NodeID, 0, h.numPads)
	for i := range h.nodes {
		if h.nodes[i].Kind == Pad {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// String summarizes the hypergraph in one line.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("hypergraph{interior:%d pads:%d nets:%d size:%d}",
		h.NumInterior(), h.numPads, len(h.nets), h.totalSize)
}

// Builder incrementally constructs a Hypergraph. The zero value is ready to
// use. Builders are not safe for concurrent use.
type Builder struct {
	nodes  []Node
	nets   []Net
	byName map[string]NodeID
	// res holds sparse per-resource demands until Build packs them into
	// dense columns; most circuits never touch it.
	res map[string]map[NodeID]int32
}

// AddNode appends a node and returns its ID. Pads are forced to size zero;
// interior nodes must have size >= 1 (size 0 is promoted to 1). Names need
// not be unique, but NodeByName resolves only the first occurrence.
func (b *Builder) AddNode(name string, kind NodeKind, size int) NodeID {
	if kind == Pad {
		size = 0
	} else if size < 1 {
		size = 1
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{Name: name, Kind: kind, Size: size})
	if b.byName == nil {
		b.byName = make(map[string]NodeID)
	}
	if _, dup := b.byName[name]; !dup && name != "" {
		b.byName[name] = id
	}
	return id
}

// AddInterior is shorthand for AddNode(name, Interior, size).
func (b *Builder) AddInterior(name string, size int) NodeID {
	return b.AddNode(name, Interior, size)
}

// AddPad is shorthand for AddNode(name, Pad, 0).
func (b *Builder) AddPad(name string) NodeID {
	return b.AddNode(name, Pad, 0)
}

// SetAux records a secondary-resource demand (e.g., flip-flops) on a node
// previously added to the builder. Negative demands are clamped to zero.
func (b *Builder) SetAux(id NodeID, aux int) {
	if aux < 0 {
		aux = 0
	}
	b.nodes[id].Aux = aux
}

// SetResource records node id's demand for a named resource axis (DSP,
// BRAM, ...). Non-positive demands are dropped — absent means zero. The
// column comes into existence with its first positive demand.
func (b *Builder) SetResource(id NodeID, name string, demand int) {
	if demand <= 0 || name == "" {
		return
	}
	if b.res == nil {
		b.res = make(map[string]map[NodeID]int32)
	}
	col := b.res[name]
	if col == nil {
		col = make(map[NodeID]int32)
		b.res[name] = col
	}
	col[id] = int32(demand)
}

// NodeByName returns the ID of the first node added with the given name.
func (b *Builder) NodeByName(name string) (NodeID, bool) {
	id, ok := b.byName[name]
	return id, ok
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// AddNet appends a net connecting the given pins and returns its ID.
// Duplicate pins are collapsed.
func (b *Builder) AddNet(name string, pins ...NodeID) NetID {
	uniq := pins[:0:0]
	seen := make(map[NodeID]bool, len(pins))
	for _, p := range pins {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	id := NetID(len(b.nets))
	b.nets = append(b.nets, Net{Name: name, Pins: uniq})
	return id
}

// AddNetUnique appends a net whose pins the caller guarantees are already
// pairwise distinct, skipping AddNet's dedup pass, and takes ownership of
// the pins slice. Generators that dedup with their own scratch state (the
// multilevel coarsener emits millions of nets per level) use it to avoid
// one map allocation per net.
func (b *Builder) AddNetUnique(name string, pins []NodeID) NetID {
	id := NetID(len(b.nets))
	b.nets = append(b.nets, Net{Name: name, Pins: pins})
	return id
}

// Build validates the construction and returns the finished hypergraph.
// It fails if any net references an unknown node or has fewer than one pin.
// Single-pin nets are permitted (they can never be cut) but nets with zero
// pins are rejected.
//
// Build assembles the flat CSR incidence slabs in two counting-sort passes
// and repoints every Net.Pins at its slab span, so the whole
// incidence structure costs four allocations regardless of net count and
// all accessors read contiguous memory.
func (b *Builder) Build() (*Hypergraph, error) {
	h := &Hypergraph{nodes: b.nodes, nets: b.nets}
	n, m := len(h.nodes), len(h.nets)

	// Pass 1: validate, size the slabs, count node degrees into nodeOff.
	h.nodeOff = make([]int32, n+1)
	h.netOff = make([]int32, m+1)
	totalPins := 0
	for ei := range h.nets {
		e := &h.nets[ei]
		if len(e.Pins) == 0 {
			return nil, fmt.Errorf("hypergraph: net %d (%q) has no pins", ei, e.Name)
		}
		for _, p := range e.Pins {
			if p < 0 || int(p) >= n {
				return nil, fmt.Errorf("hypergraph: net %d (%q) references unknown node %d", ei, e.Name, p)
			}
			h.nodeOff[p+1]++
		}
		totalPins += len(e.Pins)
		h.netOff[ei+1] = int32(totalPins)
	}
	for i := 0; i < n; i++ {
		h.nodeOff[i+1] += h.nodeOff[i]
	}

	// Pass 2: fill the pin slab (net-major, preserving each net's pin
	// order) and the transpose (cursor fill in ascending net order, which
	// reproduces the legacy per-node insertion order exactly).
	h.pinOfNet = make([]NodeID, totalPins)
	h.netOfNode = make([]NetID, totalPins)
	cursor := make([]int32, n)
	copy(cursor, h.nodeOff[:n])
	for ei := range h.nets {
		e := &h.nets[ei]
		copy(h.pinOfNet[h.netOff[ei]:h.netOff[ei+1]], e.Pins)
		for _, p := range e.Pins {
			h.netOfNode[cursor[p]] = NetID(ei)
			cursor[p]++
		}
		e.Pins = h.pinOfNet[h.netOff[ei]:h.netOff[ei+1]:h.netOff[ei+1]]
	}

	// Packed attribute arrays + aggregate stats.
	h.nodeSize = make([]int32, n)
	h.nodeAux = make([]int32, n)
	h.nodeKind = make([]NodeKind, n)
	for i := range h.nodes {
		nd := &h.nodes[i]
		h.nodeSize[i] = int32(nd.Size)
		h.nodeAux[i] = int32(nd.Aux)
		h.nodeKind[i] = nd.Kind
		if nd.Kind == Interior {
			h.totalSize += nd.Size
		} else {
			h.numPads++
		}
		h.totalAux += nd.Aux
		if d := h.Degree(NodeID(i)); d > h.maxDegree {
			h.maxDegree = d
		}
	}

	// Pack sparse builder demands into dense per-resource columns, in
	// sorted name order for a canonical layout.
	if len(b.res) > 0 {
		h.resNames = make([]string, 0, len(b.res))
		for name := range b.res {
			h.resNames = append(h.resNames, name)
		}
		sort.Strings(h.resNames)
		h.resCols = make([][]int32, len(h.resNames))
		h.resTotals = make([]int, len(h.resNames))
		for i, name := range h.resNames {
			col := make([]int32, n)
			total := 0
			for id, d := range b.res[name] {
				if int(id) >= n {
					return nil, fmt.Errorf("hypergraph: resource %s demand on unknown node %d", name, id)
				}
				col[id] = d
				total += int(d)
			}
			h.resCols[i] = col
			h.resTotals[i] = total
		}
	}
	return h, nil
}

// MustBuild is Build but panics on error; intended for tests and generators
// that construct graphs programmatically.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// BFSDistances returns, for every node, its hop distance from the seed node
// (two nodes are adjacent when they share a net). Unreachable nodes get -1.
func (h *Hypergraph) BFSDistances(seed NodeID) []int {
	dist := make([]int, len(h.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[seed] = 0
	queue := []NodeID{seed}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range h.NodeNets(v) {
			for _, u := range h.NetPins(e) {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return dist
}

// FarthestFrom returns the node at maximal BFS distance from seed, preferring
// interior nodes, then larger sizes, then lower IDs for determinism. If the
// graph is disconnected it returns an unreached interior node when one
// exists (distance treated as infinite).
func (h *Hypergraph) FarthestFrom(seed NodeID) NodeID {
	dist := h.BFSDistances(seed)
	best := seed
	bestDist := -2 // below any real distance so seed itself can win only alone
	for i := range h.nodes {
		id := NodeID(i)
		if id == seed {
			continue
		}
		d := dist[i]
		if d == -1 {
			if h.nodes[i].Kind != Interior {
				continue
			}
			d = int(^uint(0) >> 2) // effectively infinite: disconnected
		}
		better := false
		switch {
		case d > bestDist:
			better = true
		case d == bestDist:
			bi, ci := h.nodes[best], h.nodes[i]
			if ci.Kind == Interior && bi.Kind != Interior {
				better = true
			} else if ci.Kind == bi.Kind && ci.Size > bi.Size {
				better = true
			}
		}
		if better {
			best, bestDist = id, d
		}
	}
	return best
}

// Components returns the connected components of the hypergraph as slices of
// node IDs, largest (by total interior size, then node count) first.
func (h *Hypergraph) Components() [][]NodeID {
	seen := make([]bool, len(h.nodes))
	var comps [][]NodeID
	for i := range h.nodes {
		if seen[i] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{NodeID(i)}
		seen[i] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, e := range h.NodeNets(v) {
				for _, u := range h.NetPins(e) {
					if !seen[u] {
						seen[u] = true
						queue = append(queue, u)
					}
				}
			}
		}
		comps = append(comps, comp)
	}
	size := func(c []NodeID) (s, n int) {
		for _, v := range c {
			s += h.nodes[v].Size
		}
		return s, len(c)
	}
	sort.SliceStable(comps, func(a, b int) bool {
		sa, na := size(comps[a])
		sb, nb := size(comps[b])
		if sa != sb {
			return sa > sb
		}
		return na > nb
	})
	return comps
}

// Induced returns the subhypergraph induced by the given node set, together
// with a mapping from new node IDs back to the original IDs. Nets are kept
// if at least two of their pins fall inside the set (single-pin remnants of
// cut nets are dropped: they cannot influence further partitioning). Node
// kinds and sizes are preserved.
func (h *Hypergraph) Induced(nodes []NodeID) (*Hypergraph, []NodeID) {
	newID := make(map[NodeID]NodeID, len(nodes))
	var b Builder
	back := make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		n := &h.nodes[v]
		id := b.AddNode(n.Name, n.Kind, n.Size)
		b.SetAux(id, n.Aux)
		for ri, name := range h.resNames {
			if d := h.resCols[ri][v]; d > 0 {
				b.SetResource(id, name, int(d))
			}
		}
		newID[v] = id
		back = append(back, v)
	}
	for ei := range h.nets {
		e := &h.nets[ei]
		var pins []NodeID
		for _, p := range e.Pins {
			if np, ok := newID[p]; ok {
				pins = append(pins, np)
			}
		}
		if len(pins) >= 2 {
			b.AddNet(e.Name, pins...)
		}
	}
	sub, err := b.Build()
	if err != nil {
		// Build can only fail on dangling pins, which cannot happen here.
		panic(fmt.Sprintf("hypergraph: induced subgraph invalid: %v", err))
	}
	return sub, back
}

// Stats describes the shape of a hypergraph; useful for generator
// calibration and reporting.
type Stats struct {
	Nodes, Interior, Pads, Nets int
	TotalSize                   int
	AvgNetDegree                float64 // pins per net
	MaxNetDegree                int
	AvgNodeDegree               float64 // nets per node
	MaxNodeDegree               int
	Components                  int
}

// ComputeStats gathers Stats for the hypergraph.
func (h *Hypergraph) ComputeStats() Stats {
	s := Stats{
		Nodes:     h.NumNodes(),
		Interior:  h.NumInterior(),
		Pads:      h.numPads,
		Nets:      h.NumNets(),
		TotalSize: h.totalSize,
	}
	var pinSum int
	for i := range h.nets {
		d := len(h.nets[i].Pins)
		pinSum += d
		if d > s.MaxNetDegree {
			s.MaxNetDegree = d
		}
	}
	if s.Nets > 0 {
		s.AvgNetDegree = float64(pinSum) / float64(s.Nets)
	}
	var degSum int
	for i := range h.nodes {
		d := h.Degree(NodeID(i))
		degSum += d
		if d > s.MaxNodeDegree {
			s.MaxNodeDegree = d
		}
	}
	if s.Nodes > 0 {
		s.AvgNodeDegree = float64(degSum) / float64(s.Nodes)
	}
	s.Components = len(h.Components())
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d (interior=%d pads=%d) nets=%d size=%d",
		s.Nodes, s.Interior, s.Pads, s.Nets, s.TotalSize)
	fmt.Fprintf(&sb, " netdeg=%.2f/%d nodedeg=%.2f/%d comps=%d",
		s.AvgNetDegree, s.MaxNetDegree, s.AvgNodeDegree, s.MaxNodeDegree, s.Components)
	return sb.String()
}
