package sanchis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

var testDev = device.Device{Name: "T", DatasheetCells: 12, Pins: 40, Fill: 1.0}

// clusters builds c densely connected clusters of n unit cells joined in a
// ring by single bridge nets, returning the graph and per-cluster node sets.
func clusters(t testing.TB, c, n int) (*hypergraph.Hypergraph, [][]hypergraph.NodeID) {
	t.Helper()
	var b hypergraph.Builder
	sets := make([][]hypergraph.NodeID, c)
	for ci := 0; ci < c; ci++ {
		for i := 0; i < n; i++ {
			sets[ci] = append(sets[ci], b.AddInterior("v", 1))
		}
		for i := 0; i+1 < n; i++ {
			b.AddNet("in", sets[ci][i], sets[ci][i+1])
			if i+2 < n {
				b.AddNet("in2", sets[ci][i], sets[ci][i+2])
			}
		}
	}
	for ci := 0; ci < c; ci++ {
		b.AddNet("bridge", sets[ci][n-1], sets[(ci+1)%c][0])
	}
	return b.MustBuild(), sets
}

// scrambled assigns the cluster graph to k blocks round-robin (worst case).
func scrambled(t testing.TB, h *hypergraph.Hypergraph, dev device.Device, k int) *partition.Partition {
	t.Helper()
	p := partition.New(h, dev)
	for i := 1; i < k; i++ {
		p.AddBlock()
	}
	for v := 0; v < h.NumNodes(); v++ {
		p.Move(hypergraph.NodeID(v), partition.BlockID(v%k))
	}
	return p
}

func TestGain1MatchesBruteForce(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 6 + r.Intn(25)
		for i := 0; i < n; i++ {
			b.AddInterior("v", 1)
		}
		for e := 0; e < n+r.Intn(2*n); e++ {
			d := 2 + r.Intn(4)
			pins := make([]hypergraph.NodeID, d)
			for i := range pins {
				pins[i] = hypergraph.NodeID(r.Intn(n))
			}
			b.AddNet("e", pins...)
		}
		h := b.MustBuild()
		p := partition.New(h, testDev)
		k := 2 + r.Intn(4)
		for i := 1; i < k; i++ {
			p.AddBlock()
		}
		for v := 0; v < n; v++ {
			p.Move(hypergraph.NodeID(v), partition.BlockID(r.Intn(k)))
		}
		e := New(p, Default())
		for trial := 0; trial < 25; trial++ {
			v := hypergraph.NodeID(r.Intn(n))
			from := p.Block(v)
			to := partition.BlockID(r.Intn(k))
			if to == from {
				continue
			}
			g := e.gain1(v, from, to)
			before := p.Cut()
			p.Move(v, to)
			after := p.Cut()
			p.Move(v, from)
			if g != before-after {
				t.Logf("seed %d: gain1(%d,%d->%d)=%d, Δcut=%d", s, v, from, to, g, before-after)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// bindDirs wires the direction-dependent engine state (active blocks, block
// index, locked-pin counters) that prepare would normally build, for
// white-box tests that call gain2/gainLevels without running a pass.
func bindDirs(e *Engine, blocks ...partition.BlockID) {
	e.blocks = blocks
	e.blkIdx = make([]int, e.p.NumBlocks())
	for i := range e.blkIdx {
		e.blkIdx[i] = -1
	}
	for i, b := range blocks {
		e.blkIdx[b] = i
	}
	e.netLock = make([]int32, e.h.NumNets()*len(blocks))
}

// lockCell marks v locked in its current block, maintaining the netLock
// counters the way applyMove does.
func lockCell(e *Engine, v hypergraph.NodeID) {
	e.locked[v] = true
	e.lockNets(v, e.blkIdx[e.p.Block(v)])
}

func TestGain2Handcrafted(t *testing.T) {
	// Net {a, b, c}: a, b in F, c in T, nothing locked.
	// Moving a (F→T): level-1 gain 0 (pF=2). Level-2: +1 for the two
	// unlocked F pins (binding number 2), -1 for the single unlocked T pin
	// (binding number 1) => net 0, the classical Krishnamurthy balance.
	var bld hypergraph.Builder
	a := bld.AddInterior("a", 1)
	b := bld.AddInterior("b", 1)
	c := bld.AddInterior("c", 1)
	bld.AddNet("n", a, b, c)
	h := bld.MustBuild()
	p := partition.New(h, testDev)
	bT := p.AddBlock()
	p.Move(c, bT)
	e := New(p, Default())
	bindDirs(e, 0, bT)
	if g := e.gain1(a, 0, bT); g != 0 {
		t.Errorf("gain1 = %d, want 0", g)
	}
	if g := e.gain2(a, 0, bT); g != 0 {
		t.Errorf("gain2 = %d, want 0 (+1 F-side, -1 T-side)", g)
	}
	// Lock b: the F side becomes unusable, positive term vanishes. The T
	// side has one unlocked pin (c), so the negative term applies: -1.
	lockCell(e, b)
	if g := e.gain2(a, 0, bT); g != -1 {
		t.Errorf("gain2 with locked partner = %d, want -1", g)
	}
	// Lock c instead: negative term vanishes (locked T pin), positive
	// term counts again.
	e.locked[b] = false
	clear(e.netLock)
	lockCell(e, c)
	if g := e.gain2(a, 0, bT); g != 1 {
		t.Errorf("gain2 with locked T pin = %d, want 1", g)
	}
}

func TestGain2IgnoresThirdBlockNets(t *testing.T) {
	// Net spanning a third block never contributes to gain2 of an F→T move.
	var bld hypergraph.Builder
	a := bld.AddInterior("a", 1)
	b := bld.AddInterior("b", 1)
	c := bld.AddInterior("c", 1)
	bld.AddNet("n", a, b, c)
	h := bld.MustBuild()
	p := partition.New(h, testDev)
	bT := p.AddBlock()
	bX := p.AddBlock()
	p.Move(b, bX) // pin in third block
	p.Move(c, bT)
	e := New(p, Default())
	bindDirs(e, 0, bT, bX)
	if g := e.gain2(a, 0, bT); g != 0 {
		t.Errorf("gain2 = %d, want 0 for net touching a third block", g)
	}
}

func TestTwoBlockImproveFindsBridgeCut(t *testing.T) {
	// With move windows disabled, the engine is classical FM and must find
	// the 2-net bridge cut of the two-cluster ring from a scrambled start.
	h, sets := clusters(t, 2, 8)
	dev := device.Device{Name: "d", DatasheetCells: 10, Pins: 40, Fill: 1.0}
	p := scrambled(t, h, dev, 2) // round-robin: terrible cut
	cfg := Default()
	cfg.DisableWindows = true
	e := New(p, cfg)
	st := e.Improve([]partition.BlockID{0, 1}, 1, 2)
	if !st.Improved {
		t.Fatal("Improve reported no improvement from a scrambled start")
	}
	// Two bridge nets join the clusters in a ring of 2; optimal cut = 2.
	if p.Cut() > 3 {
		t.Errorf("cut = %d after improvement, want near 2", p.Cut())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each block should be dominated by one cluster.
	same := 0
	for _, v := range sets[0] {
		if p.Block(v) == p.Block(sets[0][0]) {
			same++
		}
	}
	if same < 7 {
		t.Errorf("cluster 0 split across blocks: %d/8 together", same)
	}
}

func TestTwoBlockWindowKeepsBlockSaturated(t *testing.T) {
	// With the paper's windows, a 2-block pass must keep the non-remainder
	// block within [0.95, 1.05]·S_MAX (it enters saturated from the seed
	// constructor), so its size may wiggle but not collapse.
	h, _ := clusters(t, 2, 10) // 20 unit cells
	dev := device.Device{Name: "d", DatasheetCells: 12, Pins: 40, Fill: 1.0}
	p := partition.New(h, dev)
	rem := p.AddBlock()
	// Saturate block 0 with cluster 0 plus two cells of cluster 1.
	for v := 12; v < 20; v++ {
		p.Move(hypergraph.NodeID(v), rem)
	}
	if p.Size(0) != 12 {
		t.Fatalf("setup: block 0 size %d, want 12", p.Size(0))
	}
	e := New(p, Default())
	e.Improve([]partition.BlockID{0, rem}, rem, 2)
	smax := float64(dev.SMax())
	lo, hi := int(0.95*smax), int(1.05*smax)
	if p.Size(0) < lo || p.Size(0) > hi+1 {
		t.Errorf("block 0 size %d escaped window [%d,%d]", p.Size(0), lo, hi)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImproveNeverWorsensKey(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 8 + r.Intn(30)
		for i := 0; i < n; i++ {
			if r.Intn(9) == 0 {
				b.AddPad("p")
			} else {
				b.AddInterior("v", 1)
			}
		}
		for e := 0; e < n+r.Intn(n); e++ {
			d := 2 + r.Intn(3)
			pins := make([]hypergraph.NodeID, d)
			for i := range pins {
				pins[i] = hypergraph.NodeID(r.Intn(n))
			}
			b.AddNet("e", pins...)
		}
		h := b.MustBuild()
		dev := device.Device{Name: "d", DatasheetCells: 2 + n/2, Pins: 5 + r.Intn(20), Fill: 1.0}
		p := partition.New(h, dev)
		k := 2 + r.Intn(3)
		for i := 1; i < k; i++ {
			p.AddBlock()
		}
		for v := 0; v < n; v++ {
			p.Move(hypergraph.NodeID(v), partition.BlockID(r.Intn(k)))
		}
		cfg := Default()
		cfg.MaxPasses = 3
		e := New(p, cfg)
		m := device.LowerBound(h, dev)
		rem := partition.BlockID(k - 1)
		cp := cfg.Cost
		before := p.Key(cp, rem, m)
		blocks := make([]partition.BlockID, k)
		for i := range blocks {
			blocks[i] = partition.BlockID(i)
		}
		e.Improve(blocks, rem, m)
		after := p.Key(cp, rem, m)
		if before.Better(after) {
			t.Logf("seed %d: key worsened %v -> %v", s, before, after)
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMoveRegionFigure3TwoBlockStricter(t *testing.T) {
	// Figure 3 / §3.5: in a 2-block pass the non-remainder block may not
	// shrink below 0.95·S_MAX, while in a multi-block pass the bound is
	// 0.3·S_MAX. Upper bound is 1.05·S_MAX for non-remainder targets while
	// k <= M, and there is no upper bound for the remainder.
	h, _ := clusters(t, 3, 4)
	dev := device.Device{Name: "d", DatasheetCells: 10, Pins: 40, Fill: 1.0} // S_MAX = 10
	p := scrambled(t, h, dev, 3)
	e := New(p, Default())
	e.remainder = 2
	e.m = 10 // k(3) <= m: overflow allowed up to 1.05
	e.allowOver = true

	// 2-block context.
	e.blocks = []partition.BlockID{0, 2}
	// Sizes: block 0 has 4 cells (12 total /3). Moving 1 cell out of block
	// 0 leaves 3 < 0.95*10: inadmissible.
	if e.sizeAdmissible(1, 0, 2) {
		t.Error("2-block: move from non-remainder below 0.95·S_MAX should be gated")
	}
	// Multi-block context: bound drops to 0.3·S_MAX = 3: admissible.
	e.blocks = []partition.BlockID{0, 1, 2}
	if !e.sizeAdmissible(1, 0, 2) {
		t.Error("multi-block: same move should be admissible (bound 0.3)")
	}
	// Upper bound: moving into block 1 (size 4) is fine; moving a size-7
	// cell would exceed 1.05*10 = 10.5.
	if !e.sizeAdmissible(6, 2, 1) { // 4+6=10 <= 10.5
		t.Error("move to 10 <= 1.05·S_MAX should pass while overflow allowed")
	}
	if e.sizeAdmissible(7, 2, 1) { // 4+7=11 > 10.5
		t.Error("move to 11 > 1.05·S_MAX should be gated")
	}
	// Once M is reached, the upper bound is strict S_MAX.
	e.allowOver = false
	if e.sizeAdmissible(7, 2, 1) || !e.sizeAdmissible(6, 2, 1) {
		t.Error("strict S_MAX bound wrong when k > M")
	}
	// The remainder has no upper bound: a move that satisfies the source
	// window is admissible no matter how big the remainder would become.
	// (A size-100 move from block 1 would fail the *source* lower bound,
	// so grow block 1 far beyond the remainder first.)
	for _, v := range p.NodesIn(0) {
		p.Move(v, 1)
	}
	// Block 1 now has 8 cells; moving 5 leaves 3 >= 0.3·10.
	if !e.sizeAdmissible(5, 1, 2) {
		t.Error("moves to the remainder must never be size-gated above")
	}
	if !e.sizeAdmissible(5, 1, 0) {
		t.Error("move into an empty non-remainder block should pass the upper bound")
	}
	// Windows disabled: everything is admissible.
	e.cfg.DisableWindows = true
	if !e.sizeAdmissible(100, 0, 1) {
		t.Error("DisableWindows should admit everything")
	}
}

func TestImproveAllBlocksReducesCut(t *testing.T) {
	h, _ := clusters(t, 4, 6)
	dev := device.Device{Name: "d", DatasheetCells: 8, Pins: 40, Fill: 1.0}
	p := scrambled(t, h, dev, 4)
	before := p.Cut()
	e := New(p, Default())
	st := e.Improve([]partition.BlockID{0, 1, 2, 3}, 3, 4)
	if p.Cut() >= before {
		t.Errorf("cut %d -> %d: no reduction", before, p.Cut())
	}
	if st.MovesApplied == 0 || st.Passes == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImproveDeterministic(t *testing.T) {
	run := func() ([]partition.BlockID, int) {
		h, _ := clusters(t, 3, 6)
		dev := device.Device{Name: "d", DatasheetCells: 8, Pins: 40, Fill: 1.0}
		p := scrambled(t, h, dev, 3)
		e := New(p, Default())
		e.Improve([]partition.BlockID{0, 1, 2}, 2, 3)
		out := make([]partition.BlockID, h.NumNodes())
		for v := range out {
			out[v] = p.Block(hypergraph.NodeID(v))
		}
		return out, p.Cut()
	}
	a, ca := run()
	b, cb := run()
	if ca != cb {
		t.Fatalf("nondeterministic cut: %d vs %d", ca, cb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic assignment at node %d", i)
		}
	}
}

func TestSolutionStackRestarts(t *testing.T) {
	h, _ := clusters(t, 4, 6)
	dev := device.Device{Name: "d", DatasheetCells: 8, Pins: 6, Fill: 1.0}
	p := scrambled(t, h, dev, 4)
	cfg := Default()
	e := New(p, cfg)
	st := e.Improve([]partition.BlockID{0, 1, 2, 3}, 3, 4)
	if st.Restarts == 0 {
		t.Error("expected stack restarts with StackDepth=4 on a tight instance")
	}
	// Disabled stacks: no restarts.
	p2 := scrambled(t, h, dev, 4)
	cfg2 := Default()
	cfg2.StackDepth = -1
	e2 := New(p2, cfg2)
	st2 := e2.Improve([]partition.BlockID{0, 1, 2, 3}, 3, 4)
	if st2.Restarts != 0 {
		t.Errorf("StackDepth=-1 still restarted %d times", st2.Restarts)
	}
}

func TestImproveSubsetLeavesOthersUntouched(t *testing.T) {
	h, _ := clusters(t, 3, 6)
	dev := device.Device{Name: "d", DatasheetCells: 8, Pins: 40, Fill: 1.0}
	p := scrambled(t, h, dev, 3)
	frozen := map[hypergraph.NodeID]partition.BlockID{}
	for v := 0; v < h.NumNodes(); v++ {
		if p.Block(hypergraph.NodeID(v)) == 0 {
			frozen[hypergraph.NodeID(v)] = 0
		}
	}
	e := New(p, Default())
	e.Improve([]partition.BlockID{1, 2}, 2, 3)
	for v, b := range frozen {
		if p.Block(v) != b {
			t.Fatalf("node %d in inactive block moved", v)
		}
	}
}

func TestImproveSingleBlockNoop(t *testing.T) {
	h, _ := clusters(t, 2, 4)
	p := partition.New(h, testDev)
	e := New(p, Default())
	st := e.Improve([]partition.BlockID{0}, 0, 1)
	if st.Passes != 0 || st.MovesApplied != 0 {
		t.Errorf("single-block Improve did work: %+v", st)
	}
}

func TestInsertRankedBoundedAndSorted(t *testing.T) {
	less := func(a, b stackEntry) bool { return a.dist < b.dist }
	var list []stackEntry
	for _, d := range []float64{5, 3, 8, 1, 9, 2} {
		list = insertRanked(list, stackEntry{dist: d, key: partition.Key{D: d}}, 4, less)
	}
	if len(list) != 4 {
		t.Fatalf("len = %d, want 4", len(list))
	}
	want := []float64{1, 2, 3, 5}
	for i, e := range list {
		if e.dist != want[i] {
			t.Errorf("list[%d].dist = %v, want %v", i, e.dist, want[i])
		}
	}
	// Duplicate keys are not inserted twice.
	n := len(list)
	list = insertRanked(list, stackEntry{dist: 2, key: partition.Key{D: 2}}, 4, less)
	if len(list) != n {
		t.Error("duplicate entry inserted")
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Windows != DefaultWindows() || c.StackDepth != 4 || c.MaxPasses != 10 {
		t.Errorf("normalize defaults wrong: %+v", c)
	}
	if c.Cost != partition.DefaultCost() {
		t.Errorf("cost default wrong: %+v", c.Cost)
	}
	c2 := Config{StackDepth: -1}.normalize()
	if c2.StackDepth != 0 {
		t.Errorf("StackDepth -1 should normalize to 0, got %d", c2.StackDepth)
	}
}

func BenchmarkImproveTwoBlock400(b *testing.B) {
	var bld hypergraph.Builder
	r := rand.New(rand.NewSource(5))
	const n = 400
	for i := 0; i < n; i++ {
		bld.AddInterior("v", 1)
	}
	for e := 0; e < 700; e++ {
		d := 2 + r.Intn(3)
		pins := make([]hypergraph.NodeID, d)
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		bld.AddNet("e", pins...)
	}
	h := bld.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 220, Pins: 300, Fill: 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := partition.New(h, dev)
		p.AddBlock()
		for v := 0; v < n; v++ {
			p.Move(hypergraph.NodeID(v), partition.BlockID(v%2))
		}
		e := New(p, Default())
		b.StartTimer()
		e.Improve([]partition.BlockID{0, 1}, 1, 2)
	}
}

// BenchmarkImproveHighFanout times one 2-block pass on a netlist whose few
// huge nets make single moves touch thousands of pins: 20k cells, 30k nets
// of 2–4 pins, plus 5 nets of 4000–6000 pins (a tenth of everything under
// -short). This is the move shape a parallel gain flush would target; the
// serial kernel's cost on it is what any such flush has to beat.
func BenchmarkImproveHighFanout(b *testing.B) {
	n, nets, bigLo, bigSpan := 20000, 30000, 4000, 2000
	if testing.Short() {
		n, nets, bigLo, bigSpan = 2000, 3000, 400, 200
	}
	r := rand.New(rand.NewSource(11))
	var bld hypergraph.Builder
	for i := 0; i < n; i++ {
		bld.AddInterior("v", 1)
	}
	for e := 0; e < nets; e++ {
		pins := make([]hypergraph.NodeID, 2+r.Intn(3))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		bld.AddNet("e", pins...)
	}
	for e := 0; e < 5; e++ {
		pins := make([]hypergraph.NodeID, bigLo+r.Intn(bigSpan+1))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		bld.AddNet("big", pins...)
	}
	h := bld.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: n/2 + n/20, Pins: n, Fill: 1.0}
	assign := make([]partition.BlockID, n)
	for v := range assign {
		assign[v] = partition.BlockID(v % 2)
	}
	cfg := Default()
	cfg.MaxPasses = 1
	cfg.StackDepth = -1
	var moves int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := partition.FromAssignment(h, dev, assign, 2)
		if err != nil {
			b.Fatal(err)
		}
		e := New(p, cfg)
		b.StartTimer()
		moves = e.Improve([]partition.BlockID{0, 1}, 1, 2).MovesApplied
	}
	b.ReportMetric(float64(moves), "moves/op")
}
