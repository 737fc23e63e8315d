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
	"math"
	"slices"
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

// Hypergraph is an immutable-after-build circuit hypergraph. Build one with
// a Builder, or deserialize one with the netlist package.
//
// The hypergraph is a set of columns and nothing else. Every node
// attribute (name, kind, size, resource demands) is one packed per-node
// array, every net attribute (name, pins) one per-net array, and the
// incidence structure is two flat CSR (compressed sparse row) slabs: the
// pin lists of all nets concatenated into pinOfNet (indexed by netOff) and
// the transpose — the net lists of all nodes — concatenated into netOfNode
// (indexed by nodeOff). NodeNets and NetPins are zero-alloc views into
// these slabs.
type Hypergraph struct {
	nodeName []string // nil when every node is anonymous (coarse levels)
	nodeSize []int32  // technology cells (CLBs): 0 for pads, >= 1 for interior nodes
	nodeKind []NodeKind
	netName  []string // nil when every net is anonymous
	// netWeight[e] is how many parallel copies of itself net e stands
	// for: every cut, terminal and gain count multiplies by it. Nil when
	// every net has weight 1, as in every built or parsed netlist; only
	// MergeParallelNets makes weights.
	netWeight []int32

	// CSR incidence slabs; see the type comment.
	pinOfNet  []NodeID
	netOff    []int32 // len nets+1; net e's pins are pinOfNet[netOff[e]:netOff[e+1]]
	netOfNode []NetID
	nodeOff   []int32 // len nodes+1; node v's nets are netOfNode[nodeOff[v]:nodeOff[v+1]]

	// Named resource-demand columns (LUT/FF/DSP/...; §2's secondary
	// constraints, "handled in a similar way as the size constraint"):
	// resCols[i] is a packed per-node demand array for the resource named
	// resNames[i], laid out like nodeSize. Columns exist only when the
	// netlist declares demands; circuits without them (every paper
	// benchmark) carry none, so the scalar R=1 paths never touch this
	// memory. Names are sorted, so column order is deterministic
	// regardless of insertion order.
	resNames  []string
	resCols   [][]int32
	resTotals []int

	totalSize  int
	numPads    int
	maxDegree  int
	maxWDegree int // largest Σ weight(e) over the nets of one node
}

// NumNodes returns the total node count (interior + pads).
func (h *Hypergraph) NumNodes() int { return len(h.nodeKind) }

// NumNets returns the net count.
func (h *Hypergraph) NumNets() int { return len(h.netOff) - 1 }

// NumPads returns |Y0|, the number of terminal (pad) nodes.
func (h *Hypergraph) NumPads() int { return h.numPads }

// NumInterior returns |X0|, the number of interior nodes.
func (h *Hypergraph) NumInterior() int { return len(h.nodeKind) - h.numPads }

// TotalSize returns S0 = sum of interior node sizes.
func (h *Hypergraph) TotalSize() int { return h.totalSize }

// MaxDegree returns the largest number of nets incident to any node.
func (h *Hypergraph) MaxDegree() int { return h.maxDegree }

// MaxWeightedDegree returns the largest summed net weight incident to any
// node: the bound on any single-move gain. It equals MaxDegree when every
// net has weight 1.
func (h *Hypergraph) MaxWeightedDegree() int { return h.maxWDegree }

// NetWeight returns how many parallel copies net e stands for: 1 unless
// the net absorbed identical nets in MergeParallelNets. Cut, terminal and
// gain counts multiply by it; structural tests (span, pin counts) ignore
// it.
func (h *Hypergraph) NetWeight(e NetID) int {
	if h.netWeight == nil {
		return 1
	}
	return int(h.netWeight[e])
}

// NodeName returns the name node v was added with ("" for anonymous nodes
// such as coarse clusters).
func (h *Hypergraph) NodeName(v NodeID) string { return nameAt(h.nodeName, int(v)) }

// NetName returns the name net e was added with.
func (h *Hypergraph) NetName(e NetID) string { return nameAt(h.netName, int(e)) }

// nameAt reads entry i of a name column; a nil column is all "".
func nameAt(col []string, i int) string {
	if col == nil {
		return ""
	}
	return col[i]
}

// appendName appends name as entry i of a name column. The column stays
// nil until its first non-empty name, so the anonymous nodes and nets of
// a coarse level cost no string headers.
func appendName(col []string, i int, name string) []string {
	if col == nil {
		if name == "" {
			return nil
		}
		col = make([]string, i, i+1)
	}
	return append(col, name)
}

// NodeNets returns the nets incident to node id, in ascending net order: a
// zero-alloc view into the flat transpose slab. The slice must not be
// modified.
func (h *Hypergraph) NodeNets(id NodeID) []NetID { return h.netOfNode[h.nodeOff[id]:h.nodeOff[id+1]] }

// NetPins returns the pins of net id, without duplicates, in the order they
// were first given to AddNet: a zero-alloc view into the flat pin slab. The
// slice must not be modified.
func (h *Hypergraph) NetPins(id NetID) []NodeID { return h.pinOfNet[h.netOff[id]:h.netOff[id+1]] }

// Degree returns the number of nets incident to node id.
func (h *Hypergraph) Degree(id NodeID) int { return int(h.nodeOff[id+1] - h.nodeOff[id]) }

// NetDegree returns the number of pins on net id without touching the pin
// slab (one offset subtraction).
func (h *Hypergraph) NetDegree(id NetID) int { return int(h.netOff[id+1] - h.netOff[id]) }

// NumPins returns the total pin count Σ_e |pins(e)| — the length of the
// CSR pin slab.
func (h *Hypergraph) NumPins() int { return len(h.pinOfNet) }

// SizeOf returns the number of technology cells (CLBs) node v occupies:
// zero for pads, at least one for interior nodes.
func (h *Hypergraph) SizeOf(v NodeID) int { return int(h.nodeSize[v]) }

// AuxOf returns 0.
//
// Deprecated: the scalar aux axis is gone; flip-flops are the "FF"
// resource column. Kept only for the benchmark harness's checker.
func (h *Hypergraph) AuxOf(v NodeID) int { return 0 }

// KindOf returns whether node v is an interior node or a pad.
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

// BiggestInterior returns the first interior node of maximal size in
// nodes, or -1 when nodes holds no interior node. It is the seed choice of
// every constructive carve (§3.2: "the biggest node").
func (h *Hypergraph) BiggestInterior(nodes []NodeID) NodeID {
	var best NodeID = -1
	for _, v := range nodes {
		if h.nodeKind[v] == Interior && (best < 0 || h.nodeSize[v] > h.nodeSize[best]) {
			best = v
		}
	}
	return best
}

// NodeIDs returns all node IDs in increasing order.
func (h *Hypergraph) NodeIDs() []NodeID {
	ids := make([]NodeID, len(h.nodeKind))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// InteriorIDs returns the IDs of all interior nodes in increasing order.
func (h *Hypergraph) InteriorIDs() []NodeID {
	ids := make([]NodeID, 0, h.NumInterior())
	for i, k := range h.nodeKind {
		if k == Interior {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// PadIDs returns the IDs of all pad nodes in increasing order.
func (h *Hypergraph) PadIDs() []NodeID {
	ids := make([]NodeID, 0, h.numPads)
	for i, k := range h.nodeKind {
		if k == Pad {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// String summarizes the hypergraph in one line.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("hypergraph{interior:%d pads:%d nets:%d size:%d}",
		h.NumInterior(), h.numPads, h.NumNets(), h.totalSize)
}

// Builder incrementally constructs a Hypergraph. The zero value is ready to
// use. Builders are not safe for concurrent use.
//
// The builder stages straight into the columns the Hypergraph keeps: Build
// hands them over without copying, and adds only the transpose slab.
type Builder struct {
	names    []string
	kinds    []NodeKind
	sizes    []int32
	netNames []string
	pins     []NodeID
	netOff   []int32 // net e's pins are pins[netOff[e]:netOff[e+1]]; nil until the first net
	// stamp[v] is one more than the last net that took v as a pin, so
	// AddNet collapses duplicate pins without a set per net.
	stamp []int32
	// res holds sparse per-resource demands until Build packs them into
	// dense columns; most circuits never touch it.
	res map[string]map[NodeID]int32
	// err is the first unknown pin, or size or demand that does not fit
	// the int32 columns; Build reports it.
	err error
}

// AddNode appends a node and returns its ID. Pads are forced to size zero;
// interior nodes must have size >= 1 (size 0 is promoted to 1). Names need
// not be unique. A size past the int32 range makes Build fail.
func (b *Builder) AddNode(name string, kind NodeKind, size int) NodeID {
	if kind == Pad {
		size = 0
	} else if size < 1 {
		size = 1
	}
	id := NodeID(len(b.kinds))
	if size > math.MaxInt32 && b.err == nil {
		b.err = fmt.Errorf("hypergraph: node %d (%q) size %d exceeds %d", id, name, size, math.MaxInt32)
	}
	b.names = appendName(b.names, int(id), name)
	b.kinds = append(b.kinds, kind)
	b.sizes = append(b.sizes, int32(size))
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

// SetResource records node id's demand for a named resource axis (FF,
// DSP, BRAM, ...). Non-positive demands are dropped — absent means zero. The
// column comes into existence with its first positive demand. A demand
// past the int32 range makes Build fail.
func (b *Builder) SetResource(id NodeID, name string, demand int) {
	if demand <= 0 || name == "" {
		return
	}
	if demand > math.MaxInt32 && b.err == nil {
		node := fmt.Sprint(id)
		if id >= 0 && int(id) < len(b.kinds) {
			node = fmt.Sprintf("%d (%q)", id, nameAt(b.names, int(id)))
		}
		b.err = fmt.Errorf("hypergraph: node %s demands %d %s, more than %d", node, demand, name, math.MaxInt32)
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

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.kinds) }

// AddNet appends a net connecting the given pins and returns its ID.
// Duplicate pins are collapsed; the first occurrence keeps its place. The
// pins are copied, so the caller may reuse the slice. A pin outside
// [0, NumNodes()) — a node not added yet — makes Build fail.
func (b *Builder) AddNet(name string, pins ...NodeID) NetID {
	if b.netOff == nil {
		b.netOff = []int32{0}
	}
	id := NetID(len(b.netOff) - 1)
	if n := len(b.kinds); len(b.stamp) < n {
		b.stamp = append(b.stamp, make([]int32, n-len(b.stamp))...)
	}
	mark := int32(id) + 1
	for _, p := range pins {
		if p < 0 || int(p) >= len(b.stamp) {
			if b.err == nil {
				b.err = fmt.Errorf("hypergraph: net %d (%q) references unknown node %d", id, name, p)
			}
			continue
		}
		if b.stamp[p] != mark {
			b.stamp[p] = mark
			b.pins = append(b.pins, p)
		}
	}
	b.netNames = appendName(b.netNames, int(id), name)
	b.netOff = append(b.netOff, int32(len(b.pins)))
	return id
}

// Build validates the construction and returns the finished hypergraph.
// It fails if a node size or resource demand does not fit in int32, or if
// any net references an unknown node or has no pins. Single-pin nets are
// permitted (they can never be cut).
//
// The staged columns and pin slab become the hypergraph's own (capped, so
// later builder appends cannot reach them); Build adds the transpose slab
// in one counting-sort pass, so the whole incidence structure costs a
// fixed number of allocations regardless of net count.
func (b *Builder) Build() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	netOff := b.netOff
	if netOff == nil {
		netOff = []int32{0}
	}
	n, m := len(b.kinds), len(netOff)-1
	h := &Hypergraph{
		nodeName: capped(b.names),
		nodeSize: capped(b.sizes),
		nodeKind: capped(b.kinds),
		netName:  capped(b.netNames),
		pinOfNet: capped(b.pins),
		netOff:   capped(netOff),
	}

	for e := 0; e < m; e++ {
		if h.NetDegree(NetID(e)) == 0 {
			return nil, fmt.Errorf("hypergraph: net %d (%q) has no pins", e, h.NetName(NetID(e)))
		}
	}
	h.index()
	for i, k := range h.nodeKind {
		if k == Interior {
			h.totalSize += int(h.nodeSize[i])
		} else {
			h.numPads++
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
				if id < 0 || int(id) >= n {
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

// index builds the transpose slab from the net columns in one
// counting-sort pass and records the degree maxima.
func (h *Hypergraph) index() {
	n, m := len(h.nodeKind), h.NumNets()
	h.nodeOff = make([]int32, n+1)
	for _, p := range h.pinOfNet {
		h.nodeOff[p+1]++
	}
	for i := 0; i < n; i++ {
		h.nodeOff[i+1] += h.nodeOff[i]
	}

	// Fill the transpose by cursor in ascending net order, so each node's
	// nets come out in ascending net order.
	h.netOfNode = make([]NetID, len(h.pinOfNet))
	cursor := make([]int32, n)
	copy(cursor, h.nodeOff[:n])
	for e := 0; e < m; e++ {
		for _, p := range h.NetPins(NetID(e)) {
			h.netOfNode[cursor[p]] = NetID(e)
			cursor[p]++
		}
	}

	h.maxDegree, h.maxWDegree = 0, 0
	for v := 0; v < n; v++ {
		h.maxDegree = max(h.maxDegree, h.Degree(NodeID(v)))
		wdeg := h.Degree(NodeID(v))
		if h.netWeight != nil {
			wdeg = 0
			for _, e := range h.NodeNets(NodeID(v)) {
				wdeg += int(h.netWeight[e])
			}
		}
		h.maxWDegree = max(h.maxWDegree, wdeg)
	}
}

// MergeParallelNets returns h with every net whose pin set equals an
// earlier net's folded into that earlier net: the survivor keeps its
// place in net order, its pin order and its name, and its weight becomes
// the sum of the weights of every net folded into it. Two such nets are
// cut together and touch the same blocks, so every weighted cut, terminal
// and gain count of the result equals the unweighted count of h. The
// result shares h's node columns; when h has no parallel nets it is h
// itself.
func (h *Hypergraph) MergeParallelNets() *Hypergraph {
	m := h.NumNets()
	// Open-addressing table of survivors keyed by an order-independent
	// hash of the pin set; entries are survivor index + 1.
	size := 1
	for size < 2*m {
		size <<= 1
	}
	table := make([]int32, size)
	hashes := make([]uint64, 0, m)
	// stamp marks the pins of survivor marked-1, so comparing several
	// candidates against one survivor stamps its pins once.
	stamp := make([]int32, h.NumNodes())
	var marked int32
	off := make([]int32, 1, m+1)
	pins := make([]NodeID, 0, len(h.pinOfNet))
	weights := make([]int32, 0, m)
	var names []string
	for e := 0; e < m; e++ {
		ep := h.NetPins(NetID(e))
		hash := uint64(len(ep)) * 0x9e3779b97f4a7c15
		for _, p := range ep {
			hash += mix64(uint64(p))
		}
		slot := int(hash & uint64(size-1))
		for ; table[slot] != 0; slot = (slot + 1) & (size - 1) {
			s := table[slot] - 1
			sp := pins[off[s]:off[s+1]]
			if hashes[s] != hash || len(sp) != len(ep) {
				continue
			}
			if marked != s+1 {
				marked = s + 1
				for _, p := range sp {
					stamp[p] = marked
				}
			}
			if !allMarked(stamp, marked, ep) {
				continue
			}
			weights[s] += int32(h.NetWeight(NetID(e)))
			break
		}
		if table[slot] != 0 {
			continue // folded into survivor table[slot]-1
		}
		s := int32(len(weights))
		table[slot] = s + 1
		hashes = append(hashes, hash)
		pins = append(pins, ep...)
		off = append(off, int32(len(pins)))
		weights = append(weights, int32(h.NetWeight(NetID(e))))
		names = appendName(names, int(s), h.NetName(NetID(e)))
	}
	if len(weights) == m {
		return h
	}
	// Clone to exact size: the scratch slabs were sized for h.
	g := *h
	g.netName = slices.Clone(names)
	g.netWeight = slices.Clone(weights)
	g.pinOfNet = slices.Clone(pins)
	g.netOff = slices.Clone(off)
	g.index()
	return &g
}

// allMarked reports whether every node of pins carries mark in stamp.
func allMarked(stamp []int32, mark int32, pins []NodeID) bool {
	for _, p := range pins {
		if stamp[p] != mark {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer: a cheap bijective scramble, so the
// sum of mixed pins is an order-independent pin-set hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// capped returns s with its capacity cut to its length, so appends to the
// builder's copy cannot reach the built graph; nil stays nil.
func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// MustBuild is Build but panics on error; intended for tests and generators
// that construct graphs programmatically.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// Components returns the connected components of the hypergraph as slices of
// node IDs, largest (by total interior size, then node count) first.
func (h *Hypergraph) Components() [][]NodeID {
	seen := make([]bool, h.NumNodes())
	var comps [][]NodeID
	for i := range seen {
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
			s += int(h.nodeSize[v])
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
		id := b.AddNode(h.NodeName(v), h.nodeKind[v], int(h.nodeSize[v]))
		for ri, name := range h.resNames {
			if d := h.resCols[ri][v]; d > 0 {
				b.SetResource(id, name, int(d))
			}
		}
		newID[v] = id
		back = append(back, v)
	}
	var pins []NodeID
	for ei := 0; ei < h.NumNets(); ei++ {
		pins = pins[:0]
		for _, p := range h.NetPins(NetID(ei)) {
			if np, ok := newID[p]; ok {
				pins = append(pins, np)
			}
		}
		if len(pins) >= 2 {
			b.AddNet(h.NetName(NetID(ei)), pins...)
		}
	}
	sub, err := b.Build()
	if err != nil {
		// Build can only fail on dangling pins or out-of-range sizes,
		// which cannot happen here.
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
	for e := 0; e < s.Nets; e++ {
		s.MaxNetDegree = max(s.MaxNetDegree, h.NetDegree(NetID(e)))
	}
	if s.Nets > 0 {
		s.AvgNetDegree = float64(h.NumPins()) / float64(s.Nets)
	}
	s.MaxNodeDegree = h.maxDegree
	if s.Nodes > 0 {
		s.AvgNodeDegree = float64(h.NumPins()) / float64(s.Nodes)
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
