package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// The k-way.x baseline's tests: core.Run under the KWayX configuration.

func TestBaselineFindsFeasiblePartition(t *testing.T) {
	h := ringOfClusters(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	r, err := Partition(h, dev, KWayX())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("baseline infeasible: K=%d M=%d", r.K, r.M)
	}
	if r.K < r.M {
		t.Errorf("K=%d < M=%d", r.K, r.M)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineTrivial(t *testing.T) {
	h := ringOfClusters(t, 2, 4, 2)
	dev := device.Device{Name: "big", DatasheetCells: 50, Pins: 50, Fill: 1.0}
	r, err := Partition(h, dev, KWayX())
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 1 || r.Stats.Iterations != 0 {
		t.Errorf("K=%d iters=%d, want 1,0", r.K, r.Stats.Iterations)
	}
}

func TestBaselineErrors(t *testing.T) {
	var b hypergraph.Builder
	if _, err := Partition(b.MustBuild(), device.XC3020, KWayX()); err == nil {
		t.Error("empty circuit accepted")
	}
	var b2 hypergraph.Builder
	v := b2.AddInterior("huge", 999)
	w := b2.AddInterior("w", 1)
	b2.AddNet("n", v, w)
	if _, err := Partition(b2.MustBuild(), device.XC3020, KWayX()); err == nil {
		t.Error("oversized node accepted")
	}
	bad := device.Device{Name: "bad"}
	if _, err := Partition(ringOfClusters(t, 2, 3, 0), bad, KWayX()); err == nil {
		t.Error("bad device accepted")
	}
}

func TestQuickBaselineValid(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 10 + r.Intn(40)
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
		dev := device.Device{Name: "d", DatasheetCells: 6 + r.Intn(20), Pins: 8 + r.Intn(20), Fill: 1.0}
		cfg := KWayX()
		cfg.Engine.MaxPasses = 2
		res, err := Partition(h, dev, cfg)
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

func BenchmarkBaselineRing8(b *testing.B) {
	h := ringOfClusters(b, 8, 12, 8)
	dev := device.Device{Name: "d", DatasheetCells: 15, Pins: 30, Fill: 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(h, dev, KWayX()); err != nil {
			b.Fatal(err)
		}
	}
}
