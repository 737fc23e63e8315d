package seed

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// farthestInRemainder is the map-based farthest-node pick the flow
// baseline used before Farthest: BFS over remainder nodes from s, then the
// remainder node at maximal distance, unreachable interior nodes counting
// as infinitely far and unreachable pads never qualifying. It returns s
// when no other node qualifies.
func farthestInRemainder(p *partition.Partition, rem partition.BlockID, s hypergraph.NodeID) hypergraph.NodeID {
	h := p.Hypergraph()
	dist := map[hypergraph.NodeID]int{s: 0}
	queue := []hypergraph.NodeID{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range h.NodeNets(v) {
			for _, u := range h.NetPins(e) {
				if p.Block(u) != rem {
					continue
				}
				if _, ok := dist[u]; !ok {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	best := s
	bestD := -1
	for _, v := range p.NodesIn(rem) {
		if v == s {
			continue
		}
		d, ok := dist[v]
		if !ok {
			if h.KindOf(v) != hypergraph.Interior {
				continue
			}
			d = 1 << 30
		}
		if d > bestD {
			best, bestD = v, d
		}
	}
	return best
}

// probeTerminals is the map-based terminal count the multilevel carve used
// before Saturate: every pad of the set, plus every net of the set that
// has a pin outside it, counted with its weight as Partition.Terminals
// counts it.
func probeTerminals(p *partition.Partition, set []hypergraph.NodeID) int {
	h := p.Hypergraph()
	in := make(map[hypergraph.NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	term := 0
	seen := map[hypergraph.NetID]bool{}
	for _, v := range set {
		if h.KindOf(v) == hypergraph.Pad {
			term++
		}
		for _, e := range h.NodeNets(v) {
			if seen[e] {
				continue
			}
			seen[e] = true
			outside := p.Span(e) > 1
			for _, u := range h.NetPins(e) {
				outside = outside || !in[u]
			}
			if outside {
				term += h.NetWeight(e)
			}
		}
	}
	return term
}

// oracleFits is the whole-set check of the multilevel carve before
// Saturate: size, probeTerminals and every resource axis summed over the
// set.
func oracleFits(p *partition.Partition, dev device.Device, set []hypergraph.NodeID) bool {
	h := p.Hypergraph()
	size := 0
	res := make([]int, p.NumRes())
	for _, v := range set {
		size += h.SizeOf(v)
		for r := range res {
			res[r] += p.ResDemandOf(v, r)
		}
	}
	return size <= dev.SMax() && dev.FitsRes(res) && probeTerminals(p, set) <= dev.TMax()
}

// randomSet draws a subset of the remainder: usually a random prefix that
// stays within S_MAX (so the terminal and resource checks decide), and
// sometimes an arbitrary one.
func randomSet(r *rand.Rand, rem []hypergraph.NodeID, h *hypergraph.Hypergraph, smax int) []hypergraph.NodeID {
	perm := r.Perm(len(rem))
	want := 1 + r.Intn(len(rem))
	bounded := r.Intn(4) != 0
	var set []hypergraph.NodeID
	size := 0
	for _, i := range perm[:want] {
		v := rem[i]
		if bounded && size+h.SizeOf(v) > smax {
			continue
		}
		set = append(set, v)
		size += h.SizeOf(v)
	}
	if len(set) == 0 {
		set = append(set, rem[perm[0]])
	}
	slices.Sort(set)
	return set
}

// TestFarthestMatchesOracle checks Farthest against the map-based pick on
// random remainders with pads, carved blocks (which leave the remainder
// disconnected and strand pads), weighted nets and DSP demands, from every
// remainder node as the start.
func TestFarthestMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, _ := probeInstance(r)
		for _, s := range p.NodesIn(0) {
			want := farthestInRemainder(p, 0, s)
			if want == s {
				want = -1
			}
			if got := Farthest(p, 0, s); got != want {
				t.Fatalf("seed %d: Farthest(%d) = %d, oracle %d", seed, s, got, want)
			}
		}
	}
}

// TestSaturateMatchesOracle checks Fits against the map-based decision and
// against the block the set would really form, and Saturate against the
// grow it selects, on the same random instances.
func TestSaturateMatchesOracle(t *testing.T) {
	fits, rejects := 0, 0
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, dev := probeInstance(r)
		rem := p.NodesIn(0)
		if len(rem) == 0 {
			continue
		}
		h := p.Hypergraph()
		for trial := 0; trial < 8; trial++ {
			set := randomSet(r, rem, h, dev.SMax())
			label := fmt.Sprintf("seed %d trial %d set %v", seed, trial, set)

			// Ground truth: the set carved into a block of its own.
			assign := p.Assignment(nil)
			k := p.NumBlocks()
			for _, v := range set {
				assign[v] = partition.BlockID(k)
			}
			q, err := partition.FromAssignment(h, dev, assign, k+1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := probeTerminals(p, set), q.Terminals(partition.BlockID(k)); got != want {
				t.Fatalf("%s: oracle terminals %d, carved block %d", label, got, want)
			}

			want := oracleFits(p, dev, set)
			if got := Fits(p, 0, dev, set); got != want {
				t.Fatalf("%s: Fits %v, oracle %v", label, got, want)
			}
			if want {
				fits++
			} else {
				rejects++
			}

			init := set
			if !want {
				init = set[:1]
			}
			if got, want := Saturate(p, 0, dev, set), Grow(p, 0, dev, init); !slices.Equal(got, want) {
				t.Fatalf("%s: Saturate = %v, Grow(%v) = %v", label, got, init, want)
			}
		}
	}
	if fits == 0 || rejects == 0 {
		t.Fatalf("one-sided draw: %d sets fit, %d rejected", fits, rejects)
	}
}
