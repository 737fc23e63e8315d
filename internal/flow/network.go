package flow

import (
	"sync"

	"fpart/internal/hypergraph"
)

// network is the Yang–Wong flow transform of a region of a hypergraph.
// Every region node becomes a flow node whose flow index is its position
// in nodes; s and t are the super source and sink; every net added with
// addNet becomes two auxiliary nodes behind them. The FBB carve and the
// corridor refinement both build their flow problem through it.
type network struct {
	g        *Graph
	h        *hypergraph.Hypergraph
	idx      []int32             // per hypergraph node: flow index, -1 outside the region
	nodes    []hypergraph.NodeID // region nodes, flow index = position
	s, t     int32
	inSource []bool // per region node: pinned to the source
	inSink   []bool // per region node: pinned to the sink
	mark     []bool // residual reachability from s, per flow node

	// count and touched are bestFrontier's per-round scratch; count is
	// all zero between rounds.
	count   []int32
	touched []int32
}

// networkPool recycles networks across FBB carves and corridor
// refinements: the node index is graph-sized and the arc arrays grow to
// the largest flow problem seen, so a fresh network per call would
// reallocate both every peel and every refined pair.
var networkPool = sync.Pool{New: func() any { return &network{g: new(Graph)} }}

// newNetwork draws a network from the pool holding the transform of the
// region nodes with no net added. The caller releases it.
func newNetwork(h *hypergraph.Hypergraph, nodes []hypergraph.NodeID) *network {
	n := len(nodes)
	nw := networkPool.Get().(*network)
	nw.g.reset(n + 2)
	nw.h, nw.nodes, nw.s, nw.t = h, nodes, int32(n), int32(n+1)
	nw.idx = fill(nw.idx, h.NumNodes(), -1)
	for i, v := range nodes {
		nw.idx[v] = int32(i)
	}
	nw.inSource = fill(nw.inSource, n, false)
	nw.inSink = fill(nw.inSink, n, false)
	nw.count = fill(nw.count, n, 0)
	return nw
}

// release returns nw to the pool, dropping its hypergraph binding.
func (nw *network) release() {
	nw.h, nw.nodes = nil, nil
	networkPool.Put(nw)
}

// resize returns an n-slice, reusing s's storage when it fits; its
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill returns resize(s, n) with every element set to x.
func fill[T any](s []T, n int, x T) []T {
	s = resize(s, n)
	for i := range s {
		s[i] = x
	}
	return s
}

// addNet adds net e: a bridging edge of capacity NetWeight(e) from a first
// to a second auxiliary node, an infinite edge from every region pin into
// the first and from the second back to the pin, and an infinite edge from
// the source into the first (from the second into the sink) when pins
// outside the region pin the net to the source (sink) side.
func (nw *network) addNet(e hypergraph.NetID, toSource, toSink bool) {
	g := nw.g
	e1 := g.addNodes(2)
	e2 := e1 + 1
	g.AddEdge(e1, e2, int32(nw.h.NetWeight(e)))
	for _, v := range nw.h.NetPins(e) {
		if i := nw.idx[v]; i >= 0 {
			g.AddEdge(i, e1, Inf)
			g.AddEdge(e2, i, Inf)
		}
	}
	if toSource {
		g.AddEdge(nw.s, e1, Inf)
	}
	if toSink {
		g.AddEdge(e2, nw.t, Inf)
	}
}

// merge pins region node i to the source (toSource) or the sink side;
// pinning a node to a side it is already pinned to adds nothing.
func (nw *network) merge(i int32, toSource bool) {
	if toSource && !nw.inSource[i] {
		nw.inSource[i] = true
		nw.g.AddEdge(nw.s, i, Inf)
	} else if !toSource && !nw.inSink[i] {
		nw.inSink[i] = true
		nw.g.AddEdge(i, nw.t, Inf)
	}
}

// cut runs max-flow from s to t, continuing from the current flow, and
// reports per region node whether it lies on the source side of the
// minimum cut: the residual-reachable set, which is the same for every
// maximum flow. The slice is valid until the next cut.
func (nw *network) cut() []bool {
	nw.g.MaxFlow(nw.s, nw.t)
	nw.mark = resize(nw.mark, nw.g.NumNodes())
	nw.g.MinCutSource(nw.s, nw.mark)
	return nw.mark[:len(nw.nodes)]
}
