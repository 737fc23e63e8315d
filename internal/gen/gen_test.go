package gen

import (
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

func TestTable1Characteristics(t *testing.T) {
	// The generator must reproduce Table 1 exactly: interior node count =
	// mapped CLBs, pad count = IOBs, for both families.
	for _, s := range MCNC {
		for _, fam := range []device.Family{device.XC2000, device.XC3000} {
			h := Generate(s, fam)
			if got, want := h.NumInterior(), s.CLBs(fam); got != want {
				t.Errorf("%s/%v: CLBs = %d, want %d", s.Name, fam, got, want)
			}
			if got := h.NumPads(); got != s.IOBs {
				t.Errorf("%s/%v: IOBs = %d, want %d", s.Name, fam, got, s.IOBs)
			}
			if h.TotalSize() != s.CLBs(fam) {
				t.Errorf("%s/%v: size = %d, want %d (unit CLBs)", s.Name, fam, h.TotalSize(), s.CLBs(fam))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("c3540")
	h1 := Generate(s, device.XC3000)
	h2 := Generate(s, device.XC3000)
	if h1.NumNets() != h2.NumNets() {
		t.Fatalf("net counts differ: %d vs %d", h1.NumNets(), h2.NumNets())
	}
	for e := 0; e < h1.NumNets(); e++ {
		a, b := h1.NetPins(hypergraph.NetID(e)), h2.NetPins(hypergraph.NetID(e))
		if len(a) != len(b) {
			t.Fatalf("net %d degree differs", e)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("net %d pin %d differs", e, i)
			}
		}
	}
}

func TestFamiliesDiffer(t *testing.T) {
	s, _ := ByName("c3540")
	h2 := Generate(s, device.XC2000)
	h3 := Generate(s, device.XC3000)
	if h2.NumInterior() == h3.NumInterior() {
		t.Error("c3540 maps to different CLB counts per family")
	}
}

func TestConnectivityShape(t *testing.T) {
	s, _ := ByName("s9234")
	h := Generate(s, device.XC3000)
	st := h.ComputeStats()
	if st.Components != 1 {
		t.Errorf("circuit disconnected: %d components", st.Components)
	}
	ratio := float64(st.Nets) / float64(st.Interior)
	if ratio < 0.8 || ratio > 2.5 {
		t.Errorf("nets/CLB ratio %.2f outside plausible [0.8, 2.5]", ratio)
	}
	if st.AvgNetDegree < 2.0 || st.AvgNetDegree > 4.0 {
		t.Errorf("avg net degree %.2f outside [2,4]", st.AvgNetDegree)
	}
}

func TestSequentialHasClock(t *testing.T) {
	s, _ := ByName("s5378")
	h := Generate(s, device.XC3000)
	maxDeg := 0
	for e := 0; e < h.NumNets(); e++ {
		if d := len(h.NetPins(hypergraph.NetID(e))); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 20 {
		t.Errorf("sequential circuit lacks a high-fanout clock: max net degree %d", maxDeg)
	}
	// Combinational circuits have no such net.
	c, _ := ByName("c3540")
	hc := Generate(c, device.XC3000)
	maxDeg = 0
	for e := 0; e < hc.NumNets(); e++ {
		if d := len(hc.NetPins(hypergraph.NetID(e))); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg > 10 {
		t.Errorf("combinational circuit has a %d-pin net", maxDeg)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("c3540"); !ok {
		t.Error("c3540 missing")
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("bogus found")
	}
}

func TestSynthetic(t *testing.T) {
	h := Synthetic(200, 30, 1, true)
	if h.NumInterior() != 200 || h.NumPads() != 30 {
		t.Errorf("synthetic: %v", h)
	}
}

func TestParamsNormalize(t *testing.T) {
	p := Params{}.normalize()
	if p.Branch != 4 || p.LeafSize != 8 || p.Rent != 0.62 || p.RentCoeff != 0.75 {
		t.Errorf("defaults: %+v", p)
	}
}

func BenchmarkGenerateS38584(b *testing.B) {
	s, _ := ByName("s38584")
	for i := 0; i < b.N; i++ {
		Generate(s, device.XC3000)
	}
}
