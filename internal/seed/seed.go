// Package seed constructs initial bipartitions of a remainder block, per
// §3.2 of Krupnova & Saucier (DATE 1999).
//
// Randomly created initial partitions lead to poor results, and the overall
// algorithm needs a *semi-feasible* starting point, so two constructive
// methods are run and the best of the two is kept:
//
//  1. GreedyConeMerge — the greedy node-merge of Brasen, Hiol & Saucier
//     (ICCAD 1993): two seed nodes (the biggest node, and the node at
//     maximal BFS distance from it) grow two blocks simultaneously, each
//     step adding the frontier candidate with the best cost S/T; growing
//     both blocks at once softens the greed.
//  2. RatioCutSweep — the ratio-cut objective of Wei & Cheng (1991): nodes
//     are swept one by one into a block seeded at one point, and the prefix
//     minimizing cut/(S1·S2) with at least one feasible side is kept; the
//     sweep is run from both seed points.
//
// Both methods operate on the set of nodes currently in the remainder block
// of a global partition, and account for nets escaping to already-carved
// blocks when estimating terminal counts.
package seed

import (
	"math"
	"sync"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// tracker incrementally maintains size and terminal count of a growing node
// cluster within the remainder of a partition. A net contributes a terminal
// to the cluster when the cluster holds at least one of its pins and the net
// has pins outside the cluster — elsewhere in the remainder or in an
// already-carved block.
//
// Node and net IDs are dense, so membership and the per-net counters live
// in flat slices; the map-based version this replaced spent most of the
// seeding phase hashing and iterating.
type tracker struct {
	p      *partition.Partition
	h      *hypergraph.Hypergraph
	rem    partition.BlockID
	inC    []bool  // cluster membership per node
	pinsIn []int32 // cluster pins per net
	remPin []int32 // remainder pins per net (memoized; -1 unknown)
	size   int
	term   int
	pads   int
	nodes  int
	intCut int   // nets split between the cluster and the rest of the remainder
	res    []int // per-extra-resource demand totals (empty for scalar devices)
}

func newTracker(p *partition.Partition, rem partition.BlockID) *tracker {
	t := new(tracker)
	t.reset(p, rem)
	return t
}

// reset rebinds the tracker to (p, rem) and clears its state, reusing the
// three graph-sized slices when they still fit. Pooled callers rely on a
// reset tracker being indistinguishable from a fresh one.
func (t *tracker) reset(p *partition.Partition, rem partition.BlockID) {
	h := p.Hypergraph()
	t.p, t.h, t.rem = p, h, rem
	t.inC = resizeBools(t.inC, h.NumNodes())
	t.pinsIn = resizeInt32s(t.pinsIn, h.NumNets(), 0)
	t.remPin = resizeInt32s(t.remPin, h.NumNets(), -1)
	t.size, t.term, t.pads, t.nodes, t.intCut = 0, 0, 0, 0, 0
	if nr := p.NumRes(); cap(t.res) < nr {
		t.res = make([]int, nr)
	} else {
		t.res = t.res[:nr]
		clear(t.res)
	}
}

// resizeBools returns a false-filled n-slice, reusing b's storage when it
// fits.
func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// resizeInt32s returns an n-slice filled with fill, reusing s's storage when
// it fits.
func resizeInt32s(s []int32, n int, fill int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
		if fill == 0 {
			return s
		}
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = fill
	}
	return s
}

// remainderPins returns the number of pins net e has inside the remainder.
func (t *tracker) remainderPins(e hypergraph.NetID) int {
	if c := t.remPin[e]; c >= 0 {
		return int(c)
	}
	c := t.p.PinCount(e, t.rem)
	t.remPin[e] = int32(c)
	return c
}

// external reports whether net e has pins outside the remainder.
func (t *tracker) external(e hypergraph.NetID) bool {
	return t.remainderPins(e) < len(t.h.NetPins(e))
}

// netCounts returns whether net e currently contributes a terminal to the
// cluster, given pinsIn cluster pins.
func (t *tracker) contributes(e hypergraph.NetID, pinsIn int) bool {
	if pinsIn == 0 {
		return false
	}
	return pinsIn < t.remainderPins(e) || t.external(e)
}

// Probe returns the size and terminal count the cluster would have after
// adding v, without modifying the tracker.
func (t *tracker) Probe(v hypergraph.NodeID) (size, term int) {
	size = t.size + t.h.SizeOf(v)
	term = t.term
	if t.h.KindOf(v) == hypergraph.Pad {
		term++
	}
	for _, e := range t.h.NodeNets(v) {
		before := int(t.pinsIn[e])
		wasC := t.contributes(e, before)
		isC := t.contributes(e, before+1)
		if isC && !wasC {
			term += t.h.NetWeight(e)
		} else if !isC && wasC {
			term -= t.h.NetWeight(e)
		}
	}
	return size, term
}

// Add commits node v to the cluster.
func (t *tracker) Add(v hypergraph.NodeID) {
	_, term := t.Probe(v)
	t.size += t.h.SizeOf(v)
	for r := range t.res {
		t.res[r] += t.p.ResDemandOf(v, r)
	}
	t.term = term
	if t.h.KindOf(v) == hypergraph.Pad {
		t.pads++
	}
	t.nodes++
	t.inC[v] = true
	for _, e := range t.h.NodeNets(v) {
		before := int(t.pinsIn[e])
		after := before + 1
		rp := t.remainderPins(e)
		wasSplit := before > 0 && before < rp
		isSplit := after > 0 && after < rp
		if isSplit && !wasSplit {
			t.intCut += t.h.NetWeight(e)
		} else if !isSplit && wasSplit {
			t.intCut -= t.h.NetWeight(e)
		}
		t.pinsIn[e] = int32(after)
	}
}

// resFits reports whether adding v keeps every extra resource axis of the
// bound device within its cap; trivially true for scalar devices, whose
// trackers carry no res totals. Mirrors the size saturation tests of
// the §3.2 growth loops.
func (t *tracker) resFits(v hypergraph.NodeID) bool {
	for r := range t.res {
		if t.res[r]+t.p.ResDemandOf(v, r) > t.p.ResCap(r) {
			return false
		}
	}
	return true
}

// resWithin reports whether the cluster's accumulated extra-resource
// demand totals all sit within the bound device's caps.
func (t *tracker) resWithin() bool {
	for r := range t.res {
		if t.res[r] > t.p.ResCap(r) {
			return false
		}
	}
	return true
}

// Contains reports whether v is already in the cluster.
func (t *tracker) Contains(v hypergraph.NodeID) bool { return t.inC[v] }

// bfsScratch recycles the distance array and queue of restrictedBFS across
// peels (the seeding phase runs two BFS sweeps per peel step).
type bfsScratch struct {
	dist  []int32
	queue []hypergraph.NodeID
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// restrictedBFS returns hop distances from seedNode over remainder nodes
// only; -1 for unreached. The returned slice belongs to bs and is valid
// until bs returns to the pool.
func restrictedBFS(bs *bfsScratch, p *partition.Partition, rem partition.BlockID, seedNode hypergraph.NodeID) []int32 {
	h := p.Hypergraph()
	dist := resizeInt32s(bs.dist, h.NumNodes(), -1)
	bs.dist = dist
	dist[seedNode] = 0
	queue := bs.queue[:0]
	queue = append(queue, seedNode)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range h.NodeNets(v) {
			for _, u := range h.NetPins(e) {
				if p.Block(u) != rem {
					continue
				}
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	bs.queue = queue[:0]
	return dist
}

// Farthest returns the remainder node at maximal BFS distance from s,
// the distance running over remainder nodes only, or -1 when no other
// remainder node qualifies. Unreachable interior nodes count as farthest;
// unreachable pads never qualify. Ties break toward lower IDs.
func Farthest(p *partition.Partition, rem partition.BlockID, s hypergraph.NodeID) hypergraph.NodeID {
	h := p.Hypergraph()
	bs := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(bs)
	dist := restrictedBFS(bs, p, rem, s)
	var far hypergraph.NodeID = -1
	best := -1
	for i, d32 := range dist {
		v := hypergraph.NodeID(i)
		if v == s || p.Block(v) != rem {
			continue
		}
		d := int(d32)
		if d < 0 {
			if h.KindOf(v) != hypergraph.Interior {
				continue
			}
			d = math.MaxInt32
		}
		if d > best {
			best, far = d, v
		}
	}
	return far
}

// seeds picks the two seed nodes of §3.2: the biggest interior node of the
// remainder, and the Farthest node from it.
func seeds(p *partition.Partition, rem partition.BlockID) (s1, s2 hypergraph.NodeID, ok bool) {
	nodes := p.NodesIn(rem)
	if len(nodes) < 2 {
		return 0, 0, false
	}
	s1 = p.Hypergraph().BiggestInterior(nodes)
	if s1 < 0 {
		s1 = nodes[0] // pad-only remainder: degenerate but handled
	}
	s2 = Farthest(p, rem, s1)
	if s2 < 0 {
		s2 = nodes[1]
		if s2 == s1 {
			s2 = nodes[0]
		}
	}
	return s1, s2, true
}

// GreedyConeMerge runs the two-block greedy merge and returns the node set
// of the block selected as P_k (the saturated block with the biggest size).
// Returns ok=false when the remainder has fewer than two nodes.
func GreedyConeMerge(p *partition.Partition, rem partition.BlockID, dev device.Device) (blockP []hypergraph.NodeID, ok bool) {
	s1, s2, ok := seeds(p, rem)
	if !ok {
		return nil, false
	}
	a := newGrow(p, rem)
	b := newGrow(p, rem)
	defer a.release()
	defer b.release()
	a.add(s1)
	b.add(s2)
	// Each block's members are taken for the other, so neither grows into
	// its sibling.
	a.other, b.other = b, a

	smax, tmax := dev.SMax(), dev.TMax()
	for !a.done || !b.done {
		if !a.done && !a.step(smax, tmax) {
			a.done = true
		}
		if !b.done && !b.step(smax, tmax) {
			b.done = true
		}
	}

	// The block with the biggest size becomes P_k; everything else stays in
	// (returns to) the remainder.
	if b.t.size > a.t.size {
		a = b
	}
	return a.detachMembers(), true
}

// grow tracks one greedily growing cluster: one of the two simultaneously
// growing blocks of the greedy cone merge, or Grow's single cluster. The
// frontier is an insertion-ordered slice deduplicated by inFront; entries
// that were taken are compacted out during scans. Candidate selection
// breaks ties by a total order (cost, then node ID), so scan order does not
// affect the pick.
//
// probeDT caches each candidate's Probe terminal delta (the terminal count
// after adding it, minus the cluster's). The delta reads only the
// cluster's pin counts on the candidate's nets, and adding v changes those
// counts on v's nets alone, so add marks stale just the pins of v's nets
// and a frontier scan recomputes only the candidates next to the last
// member.
type grow struct {
	t        *tracker
	members  []hypergraph.NodeID
	frontier []hypergraph.NodeID
	inFront  []bool
	probeDT  []int32
	other    *grow // sibling cluster whose members are taken too; nil in Grow
	done     bool
}

// probeStale marks a probeDT entry that must be recomputed. A real delta
// is bounded by the candidate's weighted degree plus one, far above it.
const probeStale = math.MinInt32

// growPool recycles grow clusters across peel steps: each §3.2 seeding pass
// builds up to three of them, and the tracker plus membership slices are all
// graph-sized.
var growPool = sync.Pool{New: func() any { return &grow{t: new(tracker)} }}

// newGrow draws a fully reset grow cluster from the pool.
func newGrow(p *partition.Partition, rem partition.BlockID) *grow {
	g := growPool.Get().(*grow)
	g.t.reset(p, rem)
	n := p.Hypergraph().NumNodes()
	g.inFront = resizeBools(g.inFront, n)
	g.probeDT = resizeInt32s(g.probeDT, n, probeStale)
	g.frontier = g.frontier[:0]
	g.members = g.members[:0]
	g.done = false
	return g
}

// add extends the cluster with v, refreshes its frontier and marks the
// probe deltas of v's net neighbours stale.
func (g *grow) add(v hypergraph.NodeID) {
	p, h, rem := g.t.p, g.t.h, g.t.rem
	g.t.Add(v)
	g.members = append(g.members, v)
	for _, e := range h.NodeNets(v) {
		for _, u := range h.NetPins(e) {
			g.probeDT[u] = probeStale
			if u != v && !g.inFront[u] && p.Block(u) == rem && !g.t.Contains(u) {
				g.inFront[u] = true
				g.frontier = append(g.frontier, u)
			}
		}
	}
}

// probe is tracker.Probe through the probeDT cache.
func (g *grow) probe(v hypergraph.NodeID) (size, term int) {
	d := g.probeDT[v]
	if d == probeStale {
		_, t := g.t.Probe(v)
		d = int32(t - g.t.term)
		g.probeDT[v] = d
	}
	return g.t.size + g.t.h.SizeOf(v), g.t.term + int(d)
}

// taken reports whether v already belongs to this cluster or its sibling.
func (g *grow) taken(v hypergraph.NodeID) bool {
	return g.t.Contains(v) || g.other != nil && g.other.t.Contains(v)
}

// step grows g by its best frontier candidate under the Brasen/Saucier
// cost, size per terminal of the merged cluster (bigger is better: more
// logic per pin). It returns false when the cluster is saturated: no
// candidate keeps both device constraints (§3.2: "merge for each block
// stops when constraints are saturated"). When the frontier runs dry but
// the cluster is unsaturated (disconnected remainder, or pads stranded by
// earlier carves), growth jumps to the best admissible node anywhere in
// the remainder.
func (g *grow) step(smax, tmax int) bool {
	var bestV hypergraph.NodeID = -1
	bestCost := math.Inf(-1)
	consider := func(v hypergraph.NodeID) {
		s, t := g.probe(v)
		if s > smax || t > tmax || !g.t.resFits(v) {
			return
		}
		cost := float64(s) / float64(t+1)
		if cost > bestCost || (cost == bestCost && v < bestV) {
			bestCost, bestV = cost, v
		}
	}
	keep := g.frontier[:0]
	for _, v := range g.frontier {
		if g.taken(v) {
			continue // compact out: taken nodes never return
		}
		keep = append(keep, v)
		consider(v)
	}
	g.frontier = keep
	if bestV < 0 && len(g.frontier) == 0 {
		for _, v := range g.t.p.NodesIn(g.t.rem) {
			if !g.taken(v) {
				consider(v)
			}
		}
	}
	if bestV < 0 {
		return false
	}
	g.add(bestV)
	return true
}

// detachMembers hands ownership of the member list to the caller, so the
// cluster can return to the pool while its result escapes.
func (g *grow) detachMembers() []hypergraph.NodeID {
	m := g.members
	g.members = nil
	return m
}

// release returns g to the pool, dropping its partition binding.
func (g *grow) release() {
	g.t.p, g.t.h = nil, nil
	g.other = nil
	growPool.Put(g)
}

// RatioCutSweep runs the ratio-cut sweep from both seed points and returns
// the side-1 node set of the prefix with the smallest ratio
// cut/(S1·S2) among prefixes where at least one side meets the device
// constraints. Returns ok=false when no valid prefix exists.
func RatioCutSweep(p *partition.Partition, rem partition.BlockID, dev device.Device) (blockP []hypergraph.NodeID, ok bool) {
	s1, s2, okSeeds := seeds(p, rem)
	if !okSeeds {
		return nil, false
	}
	remNodes := p.NodesIn(rem)
	totalSize := 0
	h := p.Hypergraph()
	for _, v := range remNodes {
		totalSize += h.SizeOf(v)
	}

	best := math.Inf(1)
	var bestSet []hypergraph.NodeID
	for _, s := range []hypergraph.NodeID{s1, s2} {
		set, ratio, found := sweepFrom(p, rem, dev, s, remNodes, totalSize)
		if found && ratio < best {
			best, bestSet = ratio, set
		}
	}
	if bestSet == nil {
		return nil, false
	}
	return bestSet, true
}

// attEntry is one lazy max-heap entry of a sweep: a node and the
// attraction it had when pushed.
type attEntry struct {
	a  int32
	id hypergraph.NodeID
}

// sweepScratch recycles one ratio-cut sweep's working state (tracker,
// attraction array, lazy heap, member list) across the two sweeps per peel.
type sweepScratch struct {
	t       *tracker
	attract []int32
	heap    attHeap
	members []hypergraph.NodeID
	mark    []int32             // per-node last-touched stamp, see sweepFrom
	touched []hypergraph.NodeID // nodes stamped by the current add
	epoch   int32
}

var sweepPool = sync.Pool{New: func() any { return &sweepScratch{t: new(tracker)} }}

// attHeap is a binary max-heap ordered by (attraction desc, node ID asc),
// with lazy deletion: every attraction increment pushes a fresh entry, and
// pops skip entries that are stale (superseded value) or already clustered.
// The top valid entry is therefore exactly the node a full scan with the
// same tie-break would select.
type attHeap []attEntry

func attBefore(x, y attEntry) bool {
	if x.a != y.a {
		return x.a > y.a
	}
	return x.id < y.id
}

func (hp *attHeap) push(e attEntry) {
	*hp = append(*hp, e)
	i := len(*hp) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !attBefore((*hp)[i], (*hp)[par]) {
			break
		}
		(*hp)[i], (*hp)[par] = (*hp)[par], (*hp)[i]
		i = par
	}
}

func (hp *attHeap) pop() attEntry {
	h := *hp
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*hp = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < len(h) && attBefore(h[l], h[next]) {
			next = l
		}
		if r < len(h) && attBefore(h[r], h[next]) {
			next = r
		}
		if next == i {
			break
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
	return top
}

// sweepFrom grows a cluster from seed node s, moving at each step the
// unclustered remainder node with the strongest attraction (most incident
// pins already in the cluster; ties to smaller BFS frontier order), and
// records the best ratio prefix. The sweep stops once the cluster outgrows
// S_MAX, past which no prefix is feasible.
func sweepFrom(p *partition.Partition, rem partition.BlockID, dev device.Device, s hypergraph.NodeID, remNodes []hypergraph.NodeID, totalSize int) (set []hypergraph.NodeID, ratio float64, found bool) {
	h := p.Hypergraph()
	sc := sweepPool.Get().(*sweepScratch)
	t := sc.t
	t.reset(p, rem)
	attract := resizeInt32s(sc.attract, h.NumNodes(), 0)
	sc.attract = attract
	heap := sc.heap[:0]
	members := sc.members[:0]
	defer func() {
		// Retire the scratch with its grown capacities; members never
		// escapes (the best prefix is copied out below).
		sc.heap, sc.members = heap[:0], members[:0]
		sc.t.p, sc.t.h = nil, nil
		sweepPool.Put(sc)
	}()

	mark := resizeInt32s(sc.mark, h.NumNodes(), 0)
	sc.mark = mark
	sc.epoch = 0
	add := func(v hypergraph.NodeID) {
		t.Add(v)
		members = append(members, v)
		// A neighbour sharing several nets with v gains several attraction
		// points but needs only ONE fresh heap entry — entries carrying the
		// intermediate values would be superseded immediately and popped as
		// stale. The epoch stamp dedups neighbours within this add; the top
		// valid entry the lazy heap yields is unchanged.
		sc.epoch++
		sc.touched = sc.touched[:0]
		for _, e := range h.NodeNets(v) {
			w := int32(h.NetWeight(e))
			for _, u := range h.NetPins(e) {
				if u != v && p.Block(u) == rem && !t.Contains(u) {
					attract[u] += w
					if mark[u] != sc.epoch {
						mark[u] = sc.epoch
						sc.touched = append(sc.touched, u)
					}
				}
			}
		}
		for _, u := range sc.touched {
			heap.push(attEntry{a: attract[u], id: u})
		}
	}
	add(s)

	best := math.Inf(1)
	bestLen := -1
	n := len(remNodes)
	smax := dev.SMax()
	for len(members) < n {
		// Pick the most attracted node; fall back to the lowest-ID
		// unclustered node for disconnected remainders.
		var v hypergraph.NodeID = -1
		for len(heap) > 0 {
			e := heap.pop()
			if t.Contains(e.id) || attract[e.id] != e.a {
				continue // lazy deletion: clustered or superseded entry
			}
			v = e.id
			break
		}
		if v < 0 {
			for _, u := range remNodes {
				if !t.Contains(u) {
					v = u
					break
				}
			}
			if v < 0 {
				break
			}
		}
		add(v)
		if len(members) == n {
			break // no second side left
		}
		if t.size > smax {
			// Sizes are ≥ 0, so the cluster never shrinks: no later prefix
			// can pass dev.Fits.
			break
		}
		s1, t1 := t.size, t.term
		s2 := totalSize - t.size
		if s1 == 0 || s2 == 0 {
			continue
		}
		r := float64(t.intCut) / (float64(s1) * float64(s2))
		// Require at least one feasible side. The second side's terminal
		// count is not tracked; the cluster side must be the feasible one.
		if dev.Fits(s1, t1) && t.resWithin() && r < best {
			best = r
			bestLen = len(members)
		}
	}
	if bestLen < 0 {
		return nil, 0, false
	}
	out := make([]hypergraph.NodeID, bestLen)
	copy(out, members[:bestLen])
	return out, best, true
}

// Grow greedily extends an initial cluster of remainder nodes, adding at
// each step the frontier candidate with the best size-per-terminal cost
// S/T, and stopping when no candidate keeps both device constraints. It
// returns the full member set (including init). Callers outside this
// package use it to saturate a nucleus found by other means (e.g. the flow
// baseline's min-cut side).
func Grow(p *partition.Partition, rem partition.BlockID, dev device.Device, init []hypergraph.NodeID) []hypergraph.NodeID {
	g := newGrow(p, rem)
	for _, v := range init {
		g.add(v)
	}
	return g.saturate(dev)
}

// GrowBiggest is Grow from the remainder's biggest interior node, or from
// nothing when the remainder holds only pads: the fallback carve of the
// baselines when their own split finds no block.
func GrowBiggest(p *partition.Partition, rem partition.BlockID, dev device.Device) []hypergraph.NodeID {
	var init []hypergraph.NodeID
	if s := p.Hypergraph().BiggestInterior(p.NodesIn(rem)); s >= 0 {
		init = []hypergraph.NodeID{s}
	}
	return Grow(p, rem, dev, init)
}

// trackerPool recycles the trackers of Fits, which the flow baseline calls
// on many grow rounds of one carve.
var trackerPool = sync.Pool{New: func() any { return new(tracker) }}

// Fits reports whether set, carved out of the remainder rem as one block,
// would meet every constraint of dev: size, terminals (counted as the
// tracker counts them, nets with their weight) and each extra resource
// axis.
func Fits(p *partition.Partition, rem partition.BlockID, dev device.Device, set []hypergraph.NodeID) bool {
	t := trackerPool.Get().(*tracker)
	t.reset(p, rem)
	for _, v := range set {
		t.Add(v)
	}
	ok := t.size <= dev.SMax() && t.term <= dev.TMax() && t.resWithin()
	t.p, t.h = nil, nil
	trackerPool.Put(t)
	return ok
}

// Saturate is Grow from set when the set as a whole Fits, and Grow from
// the set's first node otherwise: Grow only adds nodes, so it could never
// repair a nucleus that is already over a cap.
func Saturate(p *partition.Partition, rem partition.BlockID, dev device.Device, set []hypergraph.NodeID) []hypergraph.NodeID {
	if !Fits(p, rem, dev, set) {
		set = set[:1]
	}
	return Grow(p, rem, dev, set)
}

// saturate steps g until no candidate fits the device, then returns its
// members and releases it.
func (g *grow) saturate(dev device.Device) []hypergraph.NodeID {
	defer g.release()
	smax, tmax := dev.SMax(), dev.TMax()
	for g.step(smax, tmax) {
	}
	return g.detachMembers()
}

// Best runs both constructive methods, applies each candidate split to the
// partition in turn (new block carved out of the remainder), and keeps the
// one with the better solution key (§3.4). It returns the new block ID.
// The caller must ensure the remainder has at least two nodes.
func Best(p *partition.Partition, rem partition.BlockID, dev device.Device, cp partition.CostParams, m int) (partition.BlockID, bool) {
	cand1, ok1 := GreedyConeMerge(p, rem, dev)
	cand2, ok2 := RatioCutSweep(p, rem, dev)
	if !ok1 && !ok2 {
		return partition.NoBlock, false
	}
	newBlock := p.AddBlock()
	apply := func(set []hypergraph.NodeID) partition.Key {
		for _, v := range set {
			p.Move(v, newBlock)
		}
		return p.Key(cp, rem, m)
	}
	unapply := func(set []hypergraph.NodeID) {
		for _, v := range set {
			p.Move(v, rem)
		}
	}
	switch {
	case ok1 && !ok2:
		apply(cand1)
	case ok2 && !ok1:
		apply(cand2)
	default:
		k1 := apply(cand1)
		unapply(cand1)
		k2 := apply(cand2)
		if k1.Better(k2) {
			unapply(cand2)
			apply(cand1)
		}
	}
	return newBlock, true
}
