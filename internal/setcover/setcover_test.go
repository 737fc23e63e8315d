package setcover

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
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

func TestSetCoverFindsFeasible(t *testing.T) {
	h := ring(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	r, err := Partition(h, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatalf("infeasible: K=%d M=%d", r.K, r.M)
	}
	if r.K < r.M || r.K > 8 {
		t.Errorf("K=%d outside [M=%d, 8]", r.K, r.M)
	}
	if r.Candidates == 0 {
		t.Error("no candidates generated")
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetCoverTrivial(t *testing.T) {
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "big", DatasheetCells: 50, Pins: 50, Fill: 1.0}
	r, err := Partition(h, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.K != 1 {
		t.Errorf("K=%d feasible=%v, want 1 feasible", r.K, r.Feasible)
	}
}

func TestSetCoverOnBenchmark(t *testing.T) {
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	r, err := Partition(h, device.XC3042)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("infeasible on s9234/XC3042")
	}
	if r.K > 2*r.M {
		t.Errorf("K=%d > 2·M=%d", r.K, 2*r.M)
	}
}

func TestSetCoverErrors(t *testing.T) {
	var b hypergraph.Builder
	if _, err := Partition(b.MustBuild(), device.XC3020); err == nil {
		t.Error("empty circuit accepted")
	}
	var b2 hypergraph.Builder
	v := b2.AddInterior("huge", 999)
	w := b2.AddInterior("w", 1)
	b2.AddNet("n", v, w)
	if _, err := Partition(b2.MustBuild(), device.XC3020); err == nil {
		t.Error("oversized node accepted")
	}
	if _, err := Partition(ring(t, 2, 3, 0), device.Device{Name: "bad"}); err == nil {
		t.Error("bad device accepted")
	}
}

func TestSpreadSeeds(t *testing.T) {
	h := ring(t, 3, 10, 2)
	seeds := spreadSeeds(h, 6)
	if len(seeds) != 6 {
		t.Fatalf("seeds = %d", len(seeds))
	}
	seen := map[hypergraph.NodeID]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
		if h.KindOf(s) != hypergraph.Interior {
			t.Error("pad chosen as seed")
		}
	}
	// Request beyond the interior count clamps.
	if got := spreadSeeds(h, 1000); len(got) > h.NumInterior() {
		t.Errorf("seeds %d exceed interiors", len(got))
	}
}

// Property: set cover always yields a structurally valid partition with
// K >= M when feasible.
func TestQuickSetCoverValid(t *testing.T) {
	f := func(s int64) bool {
		r := rand.New(rand.NewSource(s))
		var b hypergraph.Builder
		n := 8 + r.Intn(40)
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
		res, err := Partition(h, dev)
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

func BenchmarkSetCoverS9234(b *testing.B) {
	spec, _ := gen.ByName("s9234")
	h := gen.Generate(spec, device.XC3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(h, device.XC3020); err != nil {
			b.Fatal(err)
		}
	}
}
