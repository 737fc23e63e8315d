package multilevel

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

func ring(t testing.TB, c, n, pads int) *hypergraph.Hypergraph {
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

func TestCoarsenHalvesGraph(t *testing.T) {
	h := ring(t, 4, 16, 8)
	lv, ok, _ := coarsenCtx(context.Background(), h, 8)
	if !ok {
		t.Fatal("coarsening stalled on a dense ring")
	}
	if lv.h.NumNodes() >= h.NumNodes() {
		t.Errorf("coarse nodes %d >= fine %d", lv.h.NumNodes(), h.NumNodes())
	}
	// Total size and pads are conserved.
	if lv.h.TotalSize() != h.TotalSize() {
		t.Errorf("size changed: %d -> %d", h.TotalSize(), lv.h.TotalSize())
	}
	if lv.h.NumPads() != h.NumPads() {
		t.Errorf("pads changed: %d -> %d", h.NumPads(), lv.h.NumPads())
	}
	// The mapping covers every fine node.
	for v := 0; v < h.NumNodes(); v++ {
		c := lv.fineToCoarse[v]
		if c < 0 || int(c) >= lv.h.NumNodes() {
			t.Fatalf("node %d maps to invalid coarse node %d", v, c)
		}
	}
}

func TestCoarsenRespectsClusterCap(t *testing.T) {
	var b hypergraph.Builder
	a := b.AddInterior("a", 5)
	c := b.AddInterior("b", 5)
	b.AddNet("n", a, c)
	h := b.MustBuild()
	// Cap 8 < 10: the pair must not merge, so matching stalls.
	if _, ok, _ := coarsenCtx(context.Background(), h, 8); ok {
		t.Error("coarsening merged beyond the cluster cap")
	}
	if lv, ok, _ := coarsenCtx(context.Background(), h, 10); !ok || lv.h.NumNodes() != 1 {
		t.Error("coarsening should merge exactly at the cap")
	}
}

func TestCoarsenNeverMergesPads(t *testing.T) {
	var b hypergraph.Builder
	p1 := b.AddPad("p1")
	p2 := b.AddPad("p2")
	v := b.AddInterior("v", 1)
	b.AddNet("n", p1, p2, v)
	h := b.MustBuild()
	lv, ok, _ := coarsenCtx(context.Background(), h, 100)
	if ok {
		if lv.h.NumPads() != 2 {
			t.Errorf("pads merged: %d", lv.h.NumPads())
		}
	}
}

func TestGrowSplitTargetsSMax(t *testing.T) {
	h := ring(t, 2, 12, 0)
	side := growSplit(h, 10)
	size := 0
	for v, b := range side {
		if b == 1 {
			size += h.SizeOf(hypergraph.NodeID(v))
		}
	}
	if size == 0 || size > 10 {
		t.Errorf("grown side size %d outside (0,10]", size)
	}
}

func TestMultilevelPartition(t *testing.T) {
	h := ring(t, 4, 12, 6)
	dev := device.Device{Name: "d", DatasheetCells: 15, Pins: 30, Fill: 1.0}
	r, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("infeasible: K=%d M=%d", r.K, r.M)
	}
	if r.K < r.M || r.K > 6 {
		t.Errorf("K = %d outside [M=%d, 6]", r.K, r.M)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultilevelOnBenchmark(t *testing.T) {
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	r, err := Partition(h, device.XC3042, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("infeasible on s9234/XC3042: K=%d M=%d", r.K, r.M)
	}
	if r.K > r.M+2 {
		t.Errorf("K = %d far above M = %d", r.K, r.M)
	}
	// The first peel's V-cycle coarsens the whole circuit: the hierarchy
	// holds the input level plus at least one coarser one.
	var st core.Stats
	p := partition.New(h, device.XC3042)
	_, levels, _, err := vCycleSplit(context.Background(), p, 0, device.XC3042, &st)
	if err != nil {
		t.Fatal(err)
	}
	if levels < 2 {
		t.Error("no coarsening levels used on a 454-cell circuit")
	}
}

func TestMultilevelErrors(t *testing.T) {
	var b hypergraph.Builder
	if _, err := Partition(b.MustBuild(), device.XC3020, Config{}); err == nil {
		t.Error("empty circuit accepted")
	}
	var b2 hypergraph.Builder
	v := b2.AddInterior("huge", 999)
	w := b2.AddInterior("w", 1)
	b2.AddNet("n", v, w)
	if _, err := Partition(b2.MustBuild(), device.XC3020, Config{}); err == nil {
		t.Error("oversized node accepted")
	}
	if _, err := Partition(ring(t, 2, 3, 0), device.Device{Name: "bad"}, Config{}); err == nil {
		t.Error("bad device accepted")
	}
}

// Property: the multilevel driver always terminates with a valid partition.
func TestQuickMultilevelValid(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 10 + r.Intn(50)
		for i := 0; i < n; i++ {
			if r.Intn(10) == 0 {
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
		dev := device.Device{Name: "d", DatasheetCells: 6 + r.Intn(20), Pins: 8 + r.Intn(25), Fill: 1.0}
		res, err := Partition(h, dev, Config{})
		if err != nil {
			return true
		}
		if res.Partition.Validate() != nil {
			return false
		}
		return !res.Feasible || res.K >= res.M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMultilevelS9234(b *testing.B) {
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(h, device.XC3020, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
