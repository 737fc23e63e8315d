package multilevel

// Invariant and cancellation tests for the retained coarsening hierarchy.
// The mlfpart engine's correctness rests on the projection-exactness
// invariant pinned here: contraction only drops cluster-internal nets and
// surviving nets keep their span, so a coarse block assignment projected
// down carries identical block sizes, pin conservation, and cut value.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/partition"
)

// checkHierarchy verifies the structural invariants between every pair of
// adjacent levels: size/resource-column conservation per cluster, pad kinds
// preserved, every fine node mapped, and no surviving net losing a pin's
// cluster.
func checkHierarchy(t *testing.T, hr *Hierarchy) {
	t.Helper()
	for li := 1; li <= hr.Depth(); li++ {
		fh, ch := hr.Graph(li-1), hr.Graph(li)
		f2c := hr.FineToCoarse(li)
		if len(f2c) != fh.NumNodes() {
			t.Fatalf("level %d: map covers %d of %d fine nodes", li, len(f2c), fh.NumNodes())
		}
		size := make([]int, ch.NumNodes())
		for v := range f2c {
			c := f2c[v]
			if c < 0 || int(c) >= ch.NumNodes() {
				t.Fatalf("level %d: fine node %d maps to invalid cluster %d", li, v, c)
			}
			id := hypergraph.NodeID(v)
			size[c] += fh.SizeOf(id)
			if fh.KindOf(id) == hypergraph.Pad && ch.KindOf(c) != hypergraph.Pad {
				t.Fatalf("level %d: pad %d merged into interior cluster %d", li, v, c)
			}
		}
		for c := 0; c < ch.NumNodes(); c++ {
			id := hypergraph.NodeID(c)
			if size[c] != ch.SizeOf(id) {
				t.Fatalf("level %d: cluster %d has size %d, members sum to %d",
					li, c, ch.SizeOf(id), size[c])
			}
		}
		for _, name := range fh.ResourceNames() {
			fcol, ccol := fh.ResourceColumn(name), ch.ResourceColumn(name)
			if ch.TotalResource(name) != fh.TotalResource(name) || ccol == nil {
				t.Fatalf("level %d: %s total %d != %d", li, name, ch.TotalResource(name), fh.TotalResource(name))
			}
			sum := make([]int32, ch.NumNodes())
			for v, c := range f2c {
				sum[c] += fcol[v]
			}
			for c := range sum {
				if sum[c] != ccol[c] {
					t.Fatalf("level %d: cluster %d demands %s %d, members sum to %d", li, c, name, ccol[c], sum[c])
				}
			}
		}
		if ch.TotalSize() != fh.TotalSize() {
			t.Fatalf("level %d: total size %d != %d", li, ch.TotalSize(), fh.TotalSize())
		}
		if ch.NumPads() != fh.NumPads() {
			t.Fatalf("level %d: pads %d != %d", li, ch.NumPads(), fh.NumPads())
		}
		// Every fine net must either survive with the exact set of member
		// clusters, or have collapsed into a single cluster. Surviving
		// nets are matched by (sorted) cluster pin set, each counted with
		// its weight on both sides; a coarse level holds each set once,
		// its parallel nets merged into one weighted net.
		fineNets := make(map[string]int)
		for e := 0; e < fh.NumNets(); e++ {
			key := netKey(f2c, fh.NetPins(hypergraph.NetID(e)))
			if key != "" {
				fineNets[key] += fh.NetWeight(hypergraph.NetID(e))
			}
		}
		coarseSets := make(map[string]bool)
		for e := 0; e < ch.NumNets(); e++ {
			pins := ch.NetPins(hypergraph.NetID(e))
			ids := make([]hypergraph.NodeID, len(pins))
			copy(ids, pins)
			key := sortedKey(ids)
			if coarseSets[key] {
				t.Fatalf("level %d: coarse net %d (%v) repeats an earlier net's pin set", li, e, pins)
			}
			coarseSets[key] = true
			if fineNets[key] < ch.NetWeight(hypergraph.NetID(e)) {
				t.Fatalf("level %d: coarse net %d (%v) of weight %d has %d fine counterparts",
					li, e, pins, ch.NetWeight(hypergraph.NetID(e)), fineNets[key])
			}
			fineNets[key] -= ch.NetWeight(hypergraph.NetID(e))
		}
		for key, left := range fineNets {
			if left != 0 {
				t.Fatalf("level %d: %d fine nets with cluster set %q lost", li, left, key)
			}
		}
	}
}

// netKey renders a fine net's cluster multiset, or "" when it collapsed
// into one cluster (dropped by contraction).
func netKey(f2c []hypergraph.NodeID, pins []hypergraph.NodeID) string {
	seen := make(map[hypergraph.NodeID]bool, len(pins))
	var ids []hypergraph.NodeID
	for _, p := range pins {
		if c := f2c[p]; !seen[c] {
			seen[c] = true
			ids = append(ids, c)
		}
	}
	if len(ids) < 2 {
		return ""
	}
	return sortedKey(ids)
}

func sortedKey(ids []hypergraph.NodeID) string {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	b := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		b = appendInt(b, int(id))
		b = append(b, ',')
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

func TestHierarchyInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		h := gen.Synthetic(2000, 80, seed, seed%2 == 0)
		hr, err := BuildHierarchy(context.Background(), h, HierarchyConfig{CoarsestNodes: 64, MaxClusterSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		if hr.Depth() < 2 {
			t.Fatalf("seed %d: depth %d, want multi-level", seed, hr.Depth())
		}
		checkHierarchy(t, hr)
	}
	// A stamped netlist: every DSP/BRAM demand must survive each level.
	var buf bytes.Buffer
	if err := gen.StreamPHG(&buf, 2000, 40, 3, false, []gen.ResStamp{{Name: "DSP", Period: 16}, {Name: "BRAM", Period: 64}}); err != nil {
		t.Fatal(err)
	}
	h, err := netlist.ReadPHG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := BuildHierarchy(context.Background(), h, HierarchyConfig{CoarsestNodes: 64, MaxClusterSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if hr.Depth() < 2 || len(h.ResourceNames()) != 2 {
		t.Fatalf("stamped instance: depth %d, columns %v", hr.Depth(), h.ResourceNames())
	}
	checkHierarchy(t, hr)
}

// Projecting a random feasible-shaped assignment from any level down to
// level 0 must preserve the cut value exactly, level by level — the
// invariant the mlfpart engine's "coarse feasibility implies projected
// feasibility" argument rests on. Differential: cut computed by
// partition.FromAssignment on each graph.
func TestHierarchyProjectionPreservesCut(t *testing.T) {
	h := gen.Synthetic(1500, 60, 5, true)
	hr, err := BuildHierarchy(context.Background(), h, HierarchyConfig{CoarsestNodes: 96, MaxClusterSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	if hr.Depth() == 0 {
		t.Fatal("no coarsening happened")
	}
	dev := device.Device{Name: "d", DatasheetCells: 1 << 20, Pins: 1 << 20, Fill: 1.0}
	rng := rand.New(rand.NewSource(42))
	const k = 7
	coarse := make([]partition.BlockID, hr.Coarsest().NumNodes())
	for i := range coarse {
		coarse[i] = partition.BlockID(rng.Intn(k))
	}
	cp, err := partition.FromAssignment(hr.Coarsest(), dev, coarse, k)
	if err != nil {
		t.Fatal(err)
	}
	wantCut := cp.Cut()
	sizes := make([]int, k)
	for b := 0; b < k; b++ {
		sizes[b] = cp.Size(partition.BlockID(b))
	}
	assign := coarse
	for li := hr.Depth(); li >= 1; li-- {
		assign = hr.Project(li, assign, nil)
		fp, err := partition.FromAssignment(hr.Graph(li-1), dev, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Cut() != wantCut {
			t.Fatalf("level %d: projected cut %d, coarse cut %d", li-1, fp.Cut(), wantCut)
		}
		for b := 0; b < k; b++ {
			if fp.Size(partition.BlockID(b)) != sizes[b] {
				t.Fatalf("level %d: block %d size %d, coarse size %d", li-1, b, fp.Size(partition.BlockID(b)), sizes[b])
			}
		}
	}
	if len(assign) != h.NumNodes() {
		t.Fatalf("final projection covers %d of %d nodes", len(assign), h.NumNodes())
	}
}

// countingCtx reports context.Canceled starting from the nth Err() call —
// it distinguishes in-loop polling from between-level polling: with a tiny
// poll interval the very first coarsening level must observe the
// cancellation before it completes.
type countingCtx struct {
	context.Context
	calls, after int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func TestBuildHierarchyCancelInsideCoarsenLoop(t *testing.T) {
	old := coarsenPollEvery
	coarsenPollEvery = 16
	defer func() { coarsenPollEvery = old }()

	h := gen.Synthetic(2000, 80, 1, false)
	// Survive BuildHierarchy's own between-level check plus one in-loop
	// poll, then cancel: the first level is still being matched, so no
	// coarse level may exist in the result.
	ctx := &countingCtx{Context: context.Background(), after: 2}
	hr, err := BuildHierarchy(ctx, h, HierarchyConfig{CoarsestNodes: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if hr != nil {
		t.Fatal("cancelled build returned a hierarchy")
	}
	// The cancellation must have been noticed mid-matching, well before
	// the ~2000 nodes of level 0 were all visited: with poll interval 16
	// and a budget of 2 Err() calls, the third call aborts after at most
	// 32 visited nodes.
	if ctx.calls > 3 {
		t.Fatalf("ctx polled %d times before aborting", ctx.calls)
	}
}
