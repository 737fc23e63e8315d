package gen

// Structural shape tests for the synthetic generator's calibration knobs.

import (
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// windowCut counts nets crossing a contiguous index window [lo, hi) — a
// proxy for the Rent boundary of a natural cluster.
func windowCut(h *hypergraph.Hypergraph, lo, hi int) int {
	cut := 0
	for e := 0; e < h.NumNets(); e++ {
		in, out := false, false
		for _, v := range h.NetPins(hypergraph.NetID(e)) {
			if int(v) >= lo && int(v) < hi {
				in = true
			} else {
				out = true
			}
		}
		if in && out {
			cut++
		}
	}
	return cut
}

func TestRentExponentControlsBoundary(t *testing.T) {
	spec := Spec{Name: "rent-test", IOBs: 0, CLBs2000: 1024, CLBs3000: 1024}
	low := GenerateParams(spec, device.XC3000, Params{Rent: 0.45})
	high := GenerateParams(spec, device.XC3000, Params{Rent: 0.75})
	// Cut of a mid-range 128-node window must grow with the exponent.
	cl := windowCut(low, 256, 384)
	ch := windowCut(high, 256, 384)
	if cl >= ch {
		t.Errorf("boundary did not grow with Rent exponent: p=0.45 cut %d, p=0.75 cut %d", cl, ch)
	}
}

func TestPerCircuitExponentsOrdered(t *testing.T) {
	// s38584 (p=0.50) must have relatively smaller window boundaries than
	// c6288 (p=0.62) at comparable window sizes.
	sSpec, _ := ByName("s38584")
	cSpec, _ := ByName("c6288")
	sh := Generate(sSpec, device.XC3000)
	chh := Generate(cSpec, device.XC3000)
	win := 256
	sCut := float64(windowCut(sh, 512, 512+win))
	cCut := float64(windowCut(chh, 256, 256+win))
	if sCut >= cCut*1.5 {
		t.Errorf("s38584 window cut %v not clearly below c6288's %v", sCut, cCut)
	}
}

func TestClockNetCapped(t *testing.T) {
	spec := Spec{Name: "big-seq", IOBs: 10, CLBs2000: 4000, CLBs3000: 4000, Sequential: true}
	h := GenerateParams(spec, device.XC3000, Params{ClockFanout: 100})
	maxDeg := 0
	for e := 0; e < h.NumNets(); e++ {
		if d := len(h.NetPins(hypergraph.NetID(e))); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg > 101 { // fanout cap + clock pad
		t.Errorf("clock fanout %d exceeds cap", maxDeg)
	}
}

func TestSequentialPadBudgetExact(t *testing.T) {
	// The clock pad counts toward the IOB budget.
	s, _ := ByName("s5378")
	h := Generate(s, device.XC3000)
	if h.NumPads() != s.IOBs {
		t.Errorf("pads = %d, want %d", h.NumPads(), s.IOBs)
	}
}

func TestGeneratorFamiliesIndependent(t *testing.T) {
	// The two family variants are independent circuits (different sizes),
	// but both deterministic.
	s, _ := ByName("s13207")
	a1 := Generate(s, device.XC2000)
	a2 := Generate(s, device.XC2000)
	if a1.NumNets() != a2.NumNets() {
		t.Error("XC2000 variant nondeterministic")
	}
	b1 := Generate(s, device.XC3000)
	if a1.NumInterior() == b1.NumInterior() {
		t.Error("families produced identical CLB counts for s13207")
	}
}

func TestTinyCircuitGeneration(t *testing.T) {
	// Degenerate sizes must not panic.
	for _, n := range []int{1, 2, 3, 7, 8, 9} {
		h := Synthetic(n, 2, 1, false)
		if h.NumInterior() != n {
			t.Errorf("n=%d: interior=%d", n, h.NumInterior())
		}
		if h.ComputeStats().Components > 2 {
			t.Errorf("n=%d badly disconnected", n)
		}
	}
}
