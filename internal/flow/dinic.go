// Package flow implements a network-flow-based multi-way partitioning
// baseline in the spirit of FBB-MW (Liu & Wong, TCAD 1998), the strongest
// competitor in the FPART paper's Tables 2–5, and the corridor flow
// refinement the multilevel engine runs on coarse levels.
//
// The package provides four layers:
//
//   - a Dinic max-flow solver on an adjacency-array residual graph;
//   - network, the one Yang–Wong transform of a hypergraph region that
//     both flow problems are built through: each net becomes a bridging
//     edge, of capacity equal to the net's weight, between two auxiliary
//     nodes, its region pins attach with infinite capacity, and nets
//     pinned to a side by pins outside the region attach to the source or
//     sink;
//   - FBB, the flow-balanced bipartition of Yang & Wong: repeated
//     max-flow/min-cut computations with node merging steer the source
//     side into a size window;
//   - a multi-way driver that repeatedly peels one device-feasible block,
//     enforcing both the size and the pin constraint, until the remainder
//     fits — the FBB-MW recursion.
package flow

// Inf is the practically infinite capacity used for pin edges.
const Inf int32 = 1 << 30

// Graph is a directed flow network stored as paired residual arcs. Nodes
// are dense int32 indices.
type Graph struct {
	head  []int32 // per node: first arc index, -1 none
	next  []int32 // per arc
	to    []int32 // per arc
	cap   []int32 // per arc: residual capacity
	level []int32
	iter  []int32
}

// NewGraph creates a flow network with n nodes and capacity hint for arcs.
func NewGraph(n, arcHint int) *Graph {
	g := &Graph{
		head: make([]int32, n),
		next: make([]int32, 0, 2*arcHint),
		to:   make([]int32, 0, 2*arcHint),
		cap:  make([]int32, 0, 2*arcHint),
	}
	for i := range g.head {
		g.head[i] = -1
	}
	return g
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.head) }

// reset empties g to n nodes and no arcs, keeping its storage.
func (g *Graph) reset(n int) {
	g.head = g.head[:0]
	g.addNodes(n)
	g.next, g.to, g.cap = g.next[:0], g.to[:0], g.cap[:0]
}

// addNodes appends k nodes and returns the index of the first.
func (g *Graph) addNodes(k int) int32 {
	first := int32(len(g.head))
	for ; k > 0; k-- {
		g.head = append(g.head, -1)
	}
	return first
}

// AddEdge adds a directed edge u→v with the given capacity and its residual
// counterpart v→u with capacity 0. It returns the arc index of the forward
// arc (the reverse arc is always arc^1).
func (g *Graph) AddEdge(u, v int32, c int32) int32 {
	a := int32(len(g.to))
	g.to = append(g.to, v)
	g.cap = append(g.cap, c)
	g.next = append(g.next, g.head[u])
	g.head[u] = a
	g.to = append(g.to, u)
	g.cap = append(g.cap, 0)
	g.next = append(g.next, g.head[v])
	g.head[v] = a + 1
	return a
}

// Cap returns the residual capacity of arc a.
func (g *Graph) Cap(a int32) int32 { return g.cap[a] }

// Flow returns the flow currently pushed through forward arc a (the
// residual capacity accumulated on its reverse arc).
func (g *Graph) Flow(a int32) int32 { return g.cap[a^1] }

// bfsLevel builds the level graph; returns false when t is unreachable.
func (g *Graph) bfsLevel(s, t int32) bool {
	g.level = fill(g.level, len(g.head), -1)
	g.level[s] = 0
	queue := []int32{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := g.head[u]; a != -1; a = g.next[a] {
			v := g.to[a]
			if g.cap[a] > 0 && g.level[v] == -1 {
				g.level[v] = g.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return g.level[t] != -1
}

// dfsAugment pushes blocking flow along level-increasing paths.
func (g *Graph) dfsAugment(u, t int32, f int32) int32 {
	if u == t {
		return f
	}
	for ; g.iter[u] != -1; g.iter[u] = g.next[g.iter[u]] {
		a := g.iter[u]
		v := g.to[a]
		if g.cap[a] <= 0 || g.level[v] != g.level[u]+1 {
			continue
		}
		push := f
		if g.cap[a] < push {
			push = g.cap[a]
		}
		got := g.dfsAugment(v, t, push)
		if got > 0 {
			g.cap[a] -= got
			g.cap[a^1] += got
			return got
		}
	}
	return 0
}

// MaxFlow runs Dinic from s to t and returns the additional flow pushed.
// Calling it again after adding edges continues from the current residual
// state, enabling the incremental FBB loop. The degenerate s == t case
// returns zero.
func (g *Graph) MaxFlow(s, t int32) int64 {
	if s == t {
		return 0
	}
	var total int64
	g.iter = resize(g.iter, len(g.head))
	for g.bfsLevel(s, t) {
		copy(g.iter, g.head)
		for {
			f := g.dfsAugment(s, t, Inf)
			if f == 0 {
				break
			}
			total += int64(f)
		}
	}
	return total
}

// MinCutSource marks every node reachable from s in the residual graph —
// the source side of a minimum cut after MaxFlow has run.
func (g *Graph) MinCutSource(s int32, mark []bool) {
	for i := range mark {
		mark[i] = false
	}
	mark[s] = true
	queue := []int32{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := g.head[u]; a != -1; a = g.next[a] {
			v := g.to[a]
			if g.cap[a] > 0 && !mark[v] {
				mark[v] = true
				queue = append(queue, v)
			}
		}
	}
}
