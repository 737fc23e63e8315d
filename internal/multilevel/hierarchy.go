package multilevel

import (
	"context"
	"fmt"
	"sort"

	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// maxLevels caps the number of coarse levels BuildHierarchy builds.
const maxLevels = 24

// HierarchyConfig tunes BuildHierarchy.
type HierarchyConfig struct {
	// CoarsestNodes stops coarsening once the coarsest graph has at most
	// this many nodes (default 1024).
	CoarsestNodes int
	// MaxClusterSize globally caps a coarse node's size. Each level also
	// applies an adaptive cap of 4× the current average cluster size, so
	// early levels merge conservatively while deep levels keep making
	// progress; MaxClusterSize bounds both (default: unbounded).
	MaxClusterSize int
}

func (c HierarchyConfig) normalize() HierarchyConfig {
	if c.CoarsestNodes <= 0 {
		c.CoarsestNodes = 1024
	}
	if c.MaxClusterSize <= 0 {
		c.MaxClusterSize = 1 << 30
	}
	return c
}

// Hierarchy is a retained multi-level coarsening of one hypergraph: level 0
// is the input graph, each following level the heavy-edge contraction of
// the previous one with its parallel nets merged into weighted nets
// (hypergraph.MergeParallelNets). It is the shared substructure of the
// multilevel baseline (vCycleSplit builds one for the remainder of every
// peel and discards it after the carve) and the mlfpart engine (which
// builds one for the whole input and peels on its coarsest graph).
type Hierarchy struct {
	levels []*level
}

// Depth returns the number of coarse levels (0 when no coarsening
// happened).
func (hr *Hierarchy) Depth() int { return len(hr.levels) - 1 }

// Graph returns the hypergraph of level i (0 = the input graph).
func (hr *Hierarchy) Graph(i int) *hypergraph.Hypergraph { return hr.levels[i].h }

// Coarsest returns the top (smallest) graph of the hierarchy.
func (hr *Hierarchy) Coarsest() *hypergraph.Hypergraph {
	return hr.levels[len(hr.levels)-1].h
}

// FineToCoarse returns the node map from level i-1 into level i (i ≥ 1).
func (hr *Hierarchy) FineToCoarse(i int) []hypergraph.NodeID {
	return hr.levels[i].fineToCoarse
}

// Project maps a block assignment of level i's nodes onto level i-1's
// nodes (i ≥ 1): every fine node inherits its cluster's block. The
// projection is exact — cluster sizes are the sums of their members, nets
// dropped during contraction were internal to one cluster, and surviving
// nets keep their span — so block sizes, terminal counts, and the cut
// value are identical before any refinement (hierarchy_test.go pins this).
// dst is reused when it has capacity.
func (hr *Hierarchy) Project(i int, coarse []partition.BlockID, dst []partition.BlockID) []partition.BlockID {
	f2c := hr.levels[i].fineToCoarse
	if cap(dst) < len(f2c) {
		dst = make([]partition.BlockID, len(f2c))
	}
	dst = dst[:len(f2c)]
	for v, c := range f2c {
		dst[v] = coarse[c]
	}
	return dst
}

// BuildHierarchy coarsens h through successive heavy-edge matchings until
// the coarsest graph falls under cfg.CoarsestNodes, matching stalls
// (reduction below 10%), or maxLevels is reached. Cancellation is
// polled between levels and inside each matching loop, so even a single
// million-cell level aborts promptly.
//
// Each level is matched on its unmerged graph, so the matching sees every
// parallel net in its own place in the rating sums — the float rounding
// of those sums, and so every FineToCoarse map, is what it would be
// without merging. A level is merged once the next level has been
// contracted from it; only the two topmost levels are ever unmerged at
// once.
func BuildHierarchy(ctx context.Context, h *hypergraph.Hypergraph, cfg HierarchyConfig) (*Hierarchy, error) {
	cfg = cfg.normalize()
	hr := &Hierarchy{levels: []*level{{h: h}}}
	cur := h // the unmerged form of the coarsest level
	for hr.Depth() < maxLevels && cur.NumNodes() > cfg.CoarsestNodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		levelCap := 4 * (cur.TotalSize()/max(cur.NumInterior(), 1) + 1)
		levelCap = min(levelCap, cfg.MaxClusterSize)
		levelCap = max(levelCap, 2)
		lv, ok, err := coarsenCtx(ctx, cur, levelCap)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		hr.mergeTop()
		hr.levels = append(hr.levels, lv)
		cur = lv.h
	}
	hr.mergeTop()
	return hr, nil
}

// mergeTop replaces the coarsest level's graph by its parallel-net merge.
// Level 0 is the caller's graph and stays as given.
func (hr *Hierarchy) mergeTop() {
	if hr.Depth() > 0 {
		top := hr.levels[len(hr.levels)-1]
		top.h = top.h.MergeParallelNets()
	}
}

// coarsenPollEvery is the matching-loop cancellation poll interval. A
// package variable so the context test can tighten it on small fixtures.
var coarsenPollEvery = 8192

// coarsenCtx builds one coarser level via heavy-edge matching: each
// unmatched node pairs with the neighbour sharing the largest connectivity
// weight Σ 1/(|e|−1); pads never merge. h must be unmerged (every net of
// weight 1): the rating counts a net once per occurrence, and the coarse
// level it returns is unmerged too. Returns ok=false when matching
// stalls (reduction below 10%). ctx is polled every coarsenPollEvery
// visited nodes.
//
// Weights accumulate into an epoch-stamped scratch array in the exact
// visit order of the historical map-based implementation, and ties break
// on the lowest node ID, so matchings (and every trajectory downstream of
// them) are unchanged while million-node levels stop paying map overhead.
func coarsenCtx(ctx context.Context, h *hypergraph.Hypergraph, maxClusterSize int) (*level, bool, error) {
	n := h.NumNodes()
	match := make([]hypergraph.NodeID, n)
	for i := range match {
		match[i] = -1
	}
	// Visit nodes in decreasing degree for better matchings.
	order := make([]hypergraph.NodeID, n)
	for i := range order {
		order[i] = hypergraph.NodeID(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return h.Degree(order[a]) > h.Degree(order[b])
	})
	matched := 0
	wval := make([]float64, n)
	wstamp := make([]int32, n)
	var epoch int32
	touched := make([]hypergraph.NodeID, 0, 64)
	for vi, v := range order {
		if vi%coarsenPollEvery == coarsenPollEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		if match[v] != -1 || h.KindOf(v) == hypergraph.Pad {
			continue
		}
		epoch++
		touched = touched[:0]
		vsz := h.SizeOf(v)
		for _, e := range h.NodeNets(v) {
			pins := h.NetPins(e)
			if len(pins) < 2 {
				continue
			}
			w := 1.0 / float64(len(pins)-1)
			for _, u := range pins {
				if u == v || match[u] != -1 || h.KindOf(u) == hypergraph.Pad {
					continue
				}
				if h.SizeOf(u)+vsz > maxClusterSize {
					continue
				}
				if wstamp[u] != epoch {
					wstamp[u] = epoch
					wval[u] = 0
					touched = append(touched, u)
				}
				wval[u] += w
			}
		}
		var best hypergraph.NodeID = -1
		bestW := 0.0
		for _, u := range touched {
			if w := wval[u]; w > bestW || (w == bestW && (best < 0 || u < best)) {
				best, bestW = u, w
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			matched += 2
		}
	}
	if matched == 0 || matched*10 < n {
		return nil, false, nil
	}
	// Build the coarse hypergraph. Coarse nodes are anonymous: names carry
	// no algorithmic weight and a million-node level would otherwise spend
	// most of its build time populating the builder's name index.
	// Every demand column is summed like size, so a coarse node
	// demands exactly what its members do on every resource axis.
	var b hypergraph.Builder
	resNames := h.ResourceNames()
	f2c := make([]hypergraph.NodeID, n)
	for i := range f2c {
		f2c[i] = -1
	}
	for i := 0; i < n; i++ {
		v := hypergraph.NodeID(i)
		if f2c[v] != -1 {
			continue
		}
		m := match[v]
		size := h.SizeOf(v)
		if m != -1 {
			size += h.SizeOf(m)
		}
		id := b.AddNode("", h.KindOf(v), size)
		for _, name := range resNames {
			col := h.ResourceColumn(name)
			d := col[v]
			if m != -1 {
				d += col[m]
			}
			b.SetResource(id, name, int(d))
		}
		f2c[v] = id
		if m != -1 {
			f2c[m] = id
		}
	}
	// Each net maps its pins through one reused scratch buffer. AddNet
	// copies them and collapses the pins that share a cluster; a net
	// whose pins all land in one cluster is internal to it and dropped.
	var coarse []hypergraph.NodeID
	for e := 0; e < h.NumNets(); e++ {
		pins := h.NetPins(hypergraph.NetID(e))
		coarse = coarse[:0]
		spans := false
		for _, p := range pins {
			coarse = append(coarse, f2c[p])
			spans = spans || f2c[p] != f2c[pins[0]]
		}
		if spans {
			b.AddNet("", coarse...)
		}
	}
	ch, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("multilevel: coarse graph invalid: %v", err))
	}
	return &level{h: ch, fineToCoarse: f2c}, true, nil
}
