package core

import (
	"context"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

func TestPortfolioBeatsOrMatchesSingle(t *testing.T) {
	spec, _ := gen.ByName("c3540")
	h := gen.Generate(spec, device.XC3000)
	single, err := Partition(h, device.XC3020, Default())
	if err != nil {
		t.Fatal(err)
	}
	best, err := Portfolio(context.Background(), h, device.XC3020, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible {
		t.Fatal("portfolio infeasible")
	}
	if best.K > single.K {
		t.Errorf("portfolio K=%d worse than single K=%d", best.K, single.K)
	}
	if err := best.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPortfolioCustomConfigs(t *testing.T) {
	h := ringOfClusters(t, 3, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	cfgs := []Config{Default(), func() Config {
		c := Default()
		c.DisableSchedule = true
		return c
	}()}
	r, err := Portfolio(context.Background(), h, dev, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
}

func TestPortfolioPropagatesErrors(t *testing.T) {
	// Empty circuit: every member fails, the error must surface.
	var b hypergraph.Builder
	if _, err := Portfolio(context.Background(), b.MustBuild(), device.XC3020, nil); err == nil {
		t.Error("portfolio swallowed errors")
	}
}

func TestDefaultPortfolioShape(t *testing.T) {
	cfgs := DefaultPortfolio()
	if len(cfgs) < 3 {
		t.Fatalf("portfolio too small: %d", len(cfgs))
	}
	// Must contain the published configuration and at least one pin-gain
	// and one windowless variant.
	var hasDefault, hasPin, hasOpen bool
	for _, c := range cfgs {
		switch {
		case c.Engine.PinGain:
			hasPin = true
		case c.Engine.DisableWindows:
			hasOpen = true
		case c == Default():
			hasDefault = true
		}
	}
	if !hasDefault || !hasPin || !hasOpen {
		t.Errorf("portfolio missing strategies: default=%v pin=%v open=%v", hasDefault, hasPin, hasOpen)
	}
}

func TestBetterResultOrdering(t *testing.T) {
	h := ringOfClusters(t, 2, 5, 2)
	dev := device.Device{Name: "d", DatasheetCells: 20, Pins: 20, Fill: 1.0}
	a, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(h, dev, Default())
	if err != nil {
		t.Fatal(err)
	}
	// Identical results: neither strictly better.
	if betterResult(a, b) && betterResult(b, a) {
		t.Error("betterResult is not antisymmetric")
	}
	// Feasibility dominates.
	b.Feasible = false
	if !betterResult(a, b) {
		t.Error("feasible result should beat infeasible")
	}
}

// TestPortfolioDeterministicWithoutBudget races the default mix with a nil
// budget, so every member runs at once. All four members reach K = M here
// with different terminal sums, so a winner that depended on which member
// finished first would show up as a second solution key. The winner must
// always be the lowest-index member at the bound, as run on its own.
func TestPortfolioDeterministicWithoutBudget(t *testing.T) {
	h := gen.Synthetic(200, 20, 1, false)
	dev := device.XC3020
	var want partition.Key
	found := false
	for _, cfg := range DefaultPortfolio() {
		r, err := Run(context.Background(), h, dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if atLowerBound(r) {
			want, found = r.Partition.Key(partition.DefaultCost(), partition.NoBlock, r.M), true
			break
		}
	}
	if !found {
		t.Fatal("no member reaches K = M; the instance no longer exercises early cancellation")
	}
	for run := 0; run < 20; run++ {
		r, err := Portfolio(context.Background(), h, dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Partition.Key(partition.DefaultCost(), partition.NoBlock, r.M); got != want {
			t.Fatalf("run %d: solution key %v, want %v", run, got, want)
		}
	}
}

// TestPortfolioUnderUnitBudget: a one-token budget degrades the portfolio
// to sequential execution but must still produce a valid best result.
func TestPortfolioUnderUnitBudget(t *testing.T) {
	h := ringOfClusters(t, 3, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	cfgs := DefaultPortfolio()
	b := NewBudget(1)
	for i := range cfgs {
		cfgs[i].Budget = b
	}
	r, err := Portfolio(context.Background(), h, dev, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, h, r)
}

// TestPortfolioReachesSpeculationK pins the device counts that speculative
// peeling (racing four engine variants at every peel step) used to buy over
// the sequential peel. Over the ten MCNC circuits on the four devices these
// are the only five pairs where it beat one sequential run; the portfolio,
// which races the same variants over whole runs, must reach each of them.
func TestPortfolioReachesSpeculationK(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the portfolio on five MCNC instances")
	}
	cases := []struct {
		circuit string
		dev     device.Device
		seqK    int // one sequential run of the published configuration
		wantK   int
	}{
		{"c5315", device.XC3042, 6, 5},
		{"c5315", device.XC3090, 4, 3},
		{"c5315", device.XC2064, 11, 10},
		{"c7552", device.XC3020, 10, 9},
		{"s15850", device.XC2064, 17, 16},
	}
	for _, tc := range cases {
		t.Run(tc.circuit+"/"+tc.dev.Name, func(t *testing.T) {
			spec, ok := gen.ByName(tc.circuit)
			if !ok {
				t.Fatalf("unknown circuit %s", tc.circuit)
			}
			h := gen.Generate(spec, tc.dev.Family)
			r, err := Portfolio(context.Background(), h, tc.dev, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, h, r)
			if !r.Feasible || r.K != tc.wantK {
				t.Errorf("portfolio: feasible=%v K=%d, want feasible K=%d (sequential peel: %d)",
					r.Feasible, r.K, tc.wantK, tc.seqK)
			}
		})
	}
}
