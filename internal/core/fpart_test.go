package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// ringOfClusters builds c clusters of n unit cells each, joined in a ring,
// with pads sprinkled on p of the clusters.
func ringOfClusters(t testing.TB, c, n, pads int) *hypergraph.Hypergraph {
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
	for i := 0; i < pads; i++ {
		pd := b.AddPad("p")
		b.AddNet("pe", pd, sets[i%c][i%n])
	}
	return b.MustBuild()
}

func checkResult(t *testing.T, h *hypergraph.Hypergraph, r *Result) {
	t.Helper()
	if err := r.Partition.Validate(); err != nil {
		t.Fatalf("final partition corrupt: %v", err)
	}
	if !r.Feasible {
		t.Fatalf("not feasible: k=%d m=%d %s", r.K, r.M, r.Partition)
	}
	dev := r.Partition.Device()
	for b := 0; b < r.Partition.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if r.Partition.Nodes(id) == 0 {
			continue
		}
		if !dev.Fits(r.Partition.Size(id), r.Partition.Terminals(id)) {
			t.Errorf("block %d infeasible: S=%d T=%d", b, r.Partition.Size(id), r.Partition.Terminals(id))
		}
	}
	if r.K < r.M {
		t.Errorf("K=%d below lower bound M=%d", r.K, r.M)
	}
	// Blocks() must partition the node set.
	seen := make(map[hypergraph.NodeID]bool)
	for _, blk := range r.Blocks() {
		for _, v := range blk {
			if seen[v] {
				t.Fatalf("node %d in two blocks", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != h.NumNodes() {
		t.Errorf("blocks cover %d of %d nodes", len(seen), h.NumNodes())
	}
}

func TestTrivialSingleDevice(t *testing.T) {
	h := ringOfClusters(t, 2, 5, 3)
	dev := device.Device{Name: "big", DatasheetCells: 100, Pins: 50, Fill: 1.0}
	r, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
	if r.K != 1 || r.Stats.Iterations != 0 {
		t.Errorf("K=%d iters=%d, want 1 and 0", r.K, r.Stats.Iterations)
	}
}

func TestTwoWaySplit(t *testing.T) {
	h := ringOfClusters(t, 2, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 14, Pins: 30, Fill: 1.0}
	r, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
	if r.K != 2 {
		t.Errorf("K = %d, want 2 (M=%d)", r.K, r.M)
	}
}

func TestMultiWaySplit(t *testing.T) {
	h := ringOfClusters(t, 6, 10, 6)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	r, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
	// M = ceil(60/13) = 5; clusters are 10 so 6 is the natural answer;
	// anything in [5, 7] is acceptable quality here.
	if r.K > 7 {
		t.Errorf("K = %d, want <= 7 (M=%d)", r.K, r.M)
	}
}

func TestErrEmptyCircuit(t *testing.T) {
	var b hypergraph.Builder
	h := b.MustBuild()
	if _, err := Partition(h, device.XC3020, Default()); err == nil {
		t.Error("empty circuit accepted")
	}
}

func TestErrOversizedNode(t *testing.T) {
	var b hypergraph.Builder
	v := b.AddInterior("huge", 1000)
	w := b.AddInterior("w", 1)
	b.AddNet("n", v, w)
	h := b.MustBuild()
	_, err := Partition(h, device.XC3020, Default())
	if !errors.Is(err, ErrUnsplittable) {
		t.Errorf("err = %v, want ErrUnsplittable", err)
	}
}

func TestErrBadDevice(t *testing.T) {
	h := ringOfClusters(t, 2, 4, 0)
	bad := device.Device{Name: "bad", DatasheetCells: 0, Pins: 0, Fill: 0}
	if _, err := Partition(h, bad, Default()); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestImprovementScheduleFigure1(t *testing.T) {
	// The trace must show, per iteration, the Figure 1 pass sequence:
	// newest pair, all blocks (small-M strategy), then the selected pairs.
	h := ringOfClusters(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	var buf bytes.Buffer
	cfg := Default()
	cfg.Sink = obs.NewTextSink(&buf)
	r, err := Partition(h, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
	out := buf.String()
	for _, want := range []string{"bipartition", "pair(R,Pk)", "improve all"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// Per iteration, the "all" pass must come after the newest-pair pass.
	lines := strings.Split(out, "\n")
	pairIdx, allIdx := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "pair(R,Pk)") && pairIdx == -1 {
			pairIdx = i
		}
		if strings.Contains(l, "improve all") && allIdx == -1 {
			allIdx = i
		}
	}
	if pairIdx == -1 || allIdx == -1 || allIdx < pairIdx {
		t.Errorf("schedule order wrong: pair at %d, all at %d", pairIdx, allIdx)
	}
}

// TestConfigNormalize pins the NSmall sentinels: 0 is the published 15,
// -1 stays below every lower bound M ≥ 1 so no peel runs the small-k
// strategy, and a positive value is kept. sanchis's TestConfigNormalize
// pins the StackDepth sentinels of the engine configuration.
func TestConfigNormalize(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 15}, {-1, -1}, {7, 7}} {
		if got := (Config{NSmall: tc.in}).normalize().NSmall; got != tc.want {
			t.Errorf("NSmall %d normalizes to %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestScheduleBigMSkipsAllPass(t *testing.T) {
	// With NSmall forced below M, the all-blocks pass must not run.
	h := ringOfClusters(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	var buf bytes.Buffer
	cfg := Default()
	cfg.NSmall = 1 // M is 4: strategy switches to the big-k variant
	cfg.Sink = obs.NewTextSink(&buf)
	r, err := Partition(h, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
	if strings.Contains(buf.String(), "improve all") {
		t.Error("all-blocks pass ran despite M > NSmall")
	}
	if !strings.Contains(buf.String(), "pair(Pmin_size,R)") &&
		!strings.Contains(buf.String(), "pair(Pmin_IO,R)") &&
		!strings.Contains(buf.String(), "pair(Pmax_F,R)") {
		t.Error("big-k strategy must still run the selected-pair passes")
	}
}

func TestDisableSchedule(t *testing.T) {
	h := ringOfClusters(t, 3, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	var buf bytes.Buffer
	cfg := Default()
	cfg.DisableSchedule = true
	cfg.Sink = obs.NewTextSink(&buf)
	r, err := Partition(h, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
	out := buf.String()
	if strings.Contains(out, "improve all") || strings.Contains(out, "Pmin_size") {
		t.Error("DisableSchedule still ran schedule passes")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (int, int64) {
		h := ringOfClusters(t, 4, 8, 4)
		dev := device.Device{Name: "d", DatasheetCells: 11, Pins: 30, Fill: 1.0}
		r, err := Partition(h, dev, Default())
		if err != nil {
			t.Fatal(err)
		}
		return r.K, r.Partition.Moves()
	}
	k1, m1 := run()
	k2, m2 := run()
	if k1 != k2 || m1 != m2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", k1, m1, k2, m2)
	}
}

func TestBlockSelectors(t *testing.T) {
	h := ringOfClusters(t, 3, 6, 6)
	dev := device.Device{Name: "d", DatasheetCells: 20, Pins: 10, Fill: 1.0}
	p := partition.New(h, dev)
	b1 := p.AddBlock()
	b2 := p.AddBlock()
	rem := partition.BlockID(0)
	// b1: 2 cells; b2: 5 cells.
	nodes := h.InteriorIDs()
	p.Move(nodes[0], b1)
	p.Move(nodes[1], b1)
	for i := 2; i < 7; i++ {
		p.Move(nodes[i], b2)
	}
	if got := minSizeBlock(p, rem); got != b1 {
		t.Errorf("minSizeBlock = %d, want %d", got, b1)
	}
	if got := minIOBlock(p, rem); got == rem || got == partition.NoBlock {
		t.Errorf("minIOBlock = %d, want a non-remainder block", got)
	}
	if got := maxFreeBlock(p, rem, 0.5, 0.5); got == rem || got == partition.NoBlock {
		t.Errorf("maxFreeBlock = %d invalid", got)
	}
	// With σ = (1, 0) free space is size-only: the smaller block wins.
	if got := maxFreeBlock(p, rem, 1, 0); got != b1 {
		t.Errorf("maxFreeBlock(size only) = %d, want %d", got, b1)
	}
	// Empty partition of selectors: no non-remainder blocks.
	p2 := partition.New(h, dev)
	if minSizeBlock(p2, 0) != partition.NoBlock ||
		minIOBlock(p2, 0) != partition.NoBlock ||
		maxFreeBlock(p2, 0, 0.5, 0.5) != partition.NoBlock {
		t.Error("selectors on remainder-only partition should return NoBlock")
	}
}

func TestIOCriticalDesign(t *testing.T) {
	// Lots of pads, little logic: the I/O constraint dominates
	// (⌈|Y0|/T_MAX⌉ > ⌈S0/S_MAX⌉), exercising the external-balance term.
	var b hypergraph.Builder
	var cells []hypergraph.NodeID
	for i := 0; i < 30; i++ {
		cells = append(cells, b.AddInterior("v", 1))
	}
	for i := 0; i+1 < 30; i++ {
		b.AddNet("c", cells[i], cells[i+1])
	}
	for i := 0; i < 40; i++ {
		pd := b.AddPad("p")
		b.AddNet("pe", pd, cells[i%30])
	}
	h := b.MustBuild()
	dev := device.Device{Name: "d", DatasheetCells: 40, Pins: 12, Fill: 1.0}
	// M = max(ceil(30/40), ceil(40/12)) = 4.
	r, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
	if r.M != 4 {
		t.Fatalf("M = %d, want 4", r.M)
	}
	if r.K > 6 {
		t.Errorf("K = %d for I/O-critical design, want close to M=4", r.K)
	}
}

// Property: FPART always terminates with a valid partition; when it reports
// feasible, every block fits and K >= M.
func TestQuickAlwaysValid(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 10 + r.Intn(60)
		for i := 0; i < n; i++ {
			if r.Intn(8) == 0 {
				b.AddPad("p")
			} else {
				b.AddInterior("v", 1+r.Intn(2))
			}
		}
		for e := 0; e < n+r.Intn(2*n); e++ {
			d := 2 + r.Intn(3)
			pins := make([]hypergraph.NodeID, d)
			for i := range pins {
				pins[i] = hypergraph.NodeID(r.Intn(n))
			}
			b.AddNet("e", pins...)
		}
		h := b.MustBuild()
		dev := device.Device{
			Name:           "d",
			DatasheetCells: 6 + r.Intn(30),
			Pins:           8 + r.Intn(30),
			Fill:           1.0,
		}
		cfg := Default()
		cfg.Engine.MaxPasses = 2 // keep the property test fast
		res, err := Partition(h, dev, cfg)
		if err != nil {
			return true // rejected inputs (oversized node) are fine
		}
		if res.Partition.Validate() != nil {
			return false
		}
		if res.Feasible && res.K < res.M {
			return false
		}
		seen := 0
		for _, blk := range res.Blocks() {
			seen += len(blk)
		}
		return seen == h.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPartitionRing8(b *testing.B) {
	h := ringOfClusters(b, 8, 12, 8)
	dev := device.Device{Name: "d", DatasheetCells: 15, Pins: 30, Fill: 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(h, dev, Default()); err != nil {
			b.Fatal(err)
		}
	}
}
