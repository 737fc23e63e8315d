package seed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// refCluster is one growing cluster of the reference growth: a tracker,
// its members and an insertion-ordered frontier, with every candidate
// probed afresh through tracker.Probe at every step.
type refCluster struct {
	t        *tracker
	members  []hypergraph.NodeID
	frontier []hypergraph.NodeID
	inFront  map[hypergraph.NodeID]bool
}

func newRefCluster(p *partition.Partition, rem partition.BlockID) *refCluster {
	return &refCluster{t: newTracker(p, rem), inFront: map[hypergraph.NodeID]bool{}}
}

func (c *refCluster) add(v hypergraph.NodeID) {
	h, p := c.t.h, c.t.p
	c.t.Add(v)
	c.members = append(c.members, v)
	for _, e := range h.NodeNets(v) {
		for _, u := range h.NetPins(e) {
			if u != v && !c.inFront[u] && p.Block(u) == c.t.rem && !c.t.Contains(u) {
				c.inFront[u] = true
				c.frontier = append(c.frontier, u)
			}
		}
	}
}

// step is the §3.2 growth step with an uncached Probe: the best
// size-per-terminal frontier candidate, or the best admissible remainder
// node once the frontier is empty.
func (c *refCluster) step(dev device.Device, taken func(hypergraph.NodeID) bool) bool {
	var bestV hypergraph.NodeID = -1
	bestCost := math.Inf(-1)
	consider := func(v hypergraph.NodeID) {
		s, t := c.t.Probe(v)
		if s > dev.SMax() || t > dev.TMax() || !c.t.resFits(v) {
			return
		}
		if cost := float64(s) / float64(t+1); cost > bestCost || (cost == bestCost && v < bestV) {
			bestCost, bestV = cost, v
		}
	}
	var keep []hypergraph.NodeID
	for _, v := range c.frontier {
		if !taken(v) {
			keep = append(keep, v)
			consider(v)
		}
	}
	c.frontier = keep
	if bestV < 0 && len(c.frontier) == 0 {
		for _, v := range c.t.p.NodesIn(c.t.rem) {
			if !taken(v) {
				consider(v)
			}
		}
	}
	if bestV < 0 {
		return false
	}
	c.add(bestV)
	return true
}

func refGreedyConeMerge(p *partition.Partition, rem partition.BlockID, dev device.Device) ([]hypergraph.NodeID, bool) {
	s1, s2, ok := seeds(p, rem)
	if !ok {
		return nil, false
	}
	a, b := newRefCluster(p, rem), newRefCluster(p, rem)
	a.add(s1)
	b.add(s2)
	taken := func(v hypergraph.NodeID) bool { return a.t.Contains(v) || b.t.Contains(v) }
	aDone, bDone := false, false
	for !aDone || !bDone {
		if !aDone && !a.step(dev, taken) {
			aDone = true
		}
		if !bDone && !b.step(dev, taken) {
			bDone = true
		}
	}
	if b.t.size > a.t.size {
		a = b
	}
	return a.members, true
}

func refGrow(p *partition.Partition, rem partition.BlockID, dev device.Device, init []hypergraph.NodeID) []hypergraph.NodeID {
	c := newRefCluster(p, rem)
	for _, v := range init {
		c.add(v)
	}
	for c.step(dev, c.t.Contains) {
	}
	return c.members
}

// probeInstance draws a random circuit whose nets repeat up to three times
// and folds the repeats into weighted nets, then carves a random share of
// its nodes into other blocks so the remainder (block 0) sees external
// nets. Some nodes are pads; interior nodes demand DSP.
func probeInstance(r *rand.Rand) (*partition.Partition, device.Device) {
	n := 20 + r.Intn(100)
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		if r.Intn(7) == 0 {
			b.AddPad("")
		} else {
			b.SetResource(b.AddInterior("", 1+r.Intn(3)), "DSP", r.Intn(3))
		}
	}
	for e := 0; e < n+r.Intn(2*n); e++ {
		pins := make([]hypergraph.NodeID, 2+r.Intn(4))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		for c := 1 + r.Intn(3); c > 0; c-- {
			b.AddNet("", pins...)
		}
	}
	h := b.MustBuild().MergeParallelNets()
	dev := device.Device{Name: "g", DatasheetCells: 8 + r.Intn(30), Pins: 6 + r.Intn(20), Fill: 1.0}
	if r.Intn(2) == 0 {
		dev.Resources = []device.Resource{{Name: "DSP", Cap: 3 + r.Intn(10)}}
	}
	k := 1 + r.Intn(4)
	assign := make([]partition.BlockID, n)
	for v := range assign {
		if r.Intn(3) == 0 {
			assign[v] = partition.BlockID(r.Intn(k))
		}
	}
	p, err := partition.FromAssignment(h, dev, assign, k)
	if err != nil {
		panic(err)
	}
	return p, dev
}

// TestGrowthMatchesUncachedProbe checks GreedyConeMerge and Grow, whose
// growth steps read cached Probe deltas, against a reference growth that
// probes every candidate afresh, on random remainders with weighted nets,
// pads, carved blocks and resource caps.
func TestGrowthMatchesUncachedProbe(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, dev := probeInstance(r)
		label := fmt.Sprintf("seed %d", seed)
		got, ok := GreedyConeMerge(p, 0, dev)
		want, wok := refGreedyConeMerge(p, 0, dev)
		if ok != wok || !slices.Equal(got, want) {
			t.Fatalf("%s: GreedyConeMerge = %v (ok %v), reference %v (ok %v)", label, got, ok, want, wok)
		}
		rem := p.NodesIn(0)
		if len(rem) == 0 {
			continue
		}
		init := []hypergraph.NodeID{rem[r.Intn(len(rem))], rem[r.Intn(len(rem))]}
		if got, want := Grow(p, 0, dev, init), refGrow(p, 0, dev, init); !slices.Equal(got, want) {
			t.Fatalf("%s: Grow(%v) = %v, reference %v", label, init, got, want)
		}
	}
}
