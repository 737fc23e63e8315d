package sanchis

// Regression pins for the move kernel: fixed seeds × gain-model variants ×
// whole-graph/subset mode, each a single Improve on a fresh engine. Any
// change to the trajectory — selection order, gain maintenance, bucket
// seeding — moves at least one pinned counter or the assignment hash.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// stressCircuit builds a random hypergraph of 40–200 cells with sizes 1–3,
// a sprinkling of pads, and nets of 2–6 pins, deterministically from r.
func stressCircuit(r *rand.Rand) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	n := 40 + r.Intn(160)
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			b.AddPad("p")
		} else {
			b.AddInterior("v", 1+r.Intn(3))
		}
	}
	for e := 0; e < n+r.Intn(2*n); e++ {
		d := 2 + r.Intn(5)
		pins := make([]hypergraph.NodeID, d)
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		b.AddNet("e", pins...)
	}
	return b.MustBuild()
}

// kernelVariants are the gain-model configurations every kernel test
// covers: the published default, PinGain, the cut objective and deep
// Krishnamurthy levels (the generic selection comparator).
var kernelVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"default", func(*Config) {}},
	{"pin-gain", func(c *Config) { c.PinGain = true }},
	{"cut-objective", func(c *Config) { c.CutObjective = true }},
	{"deep-levels", func(c *Config) { c.GainLevels = 4 }},
}

// goldenInstance is the instance of one golden seed: the graph, a random
// k-block assignment, and a device alternating between tight and roomy.
func goldenInstance(seed int64) (*hypergraph.Hypergraph, device.Device, []partition.BlockID, int) {
	r := rand.New(rand.NewSource(seed))
	h := stressCircuit(r)
	k := 2 + r.Intn(6)
	assign := make([]partition.BlockID, h.NumNodes())
	for v := range assign {
		assign[v] = partition.BlockID(r.Intn(k))
	}
	dev := device.Device{Name: "tight", DatasheetCells: 24, Pins: 14, Fill: 1.0}
	if seed%2 == 0 {
		dev = device.Device{Name: "roomy", DatasheetCells: 40, Pins: 30, Fill: 1.0}
	}
	return h, dev, assign, k
}

// kernelGolden runs one golden case and renders its pinned outcome.
func kernelGolden(t *testing.T, seed int64, variant int, subset bool) string {
	t.Helper()
	h, dev, assign, k := goldenInstance(seed)
	p, err := partition.FromAssignment(h, dev, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	m := device.LowerBound(h, dev)
	rem := partition.BlockID(k - 1)
	blocks := make([]partition.BlockID, k)
	for i := range blocks {
		blocks[i] = partition.BlockID(i)
	}
	cfg := Default()
	kernelVariants[variant].mut(&cfg)
	e := New(p, cfg)
	var st Stats
	if subset {
		var cells []hypergraph.NodeID
		for v := 0; v < h.NumNodes(); v++ {
			if v%3 != 0 {
				cells = append(cells, hypergraph.NodeID(v))
			}
		}
		st, err = e.ImproveSubsetCtx(context.Background(), blocks, rem, m, cells)
	} else {
		st, err = e.ImproveCtx(context.Background(), blocks, rem, m)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	hash := fnv.New64a()
	for v := 0; v < h.NumNodes(); v++ {
		fmt.Fprintf(hash, "%d,", p.Block(hypergraph.NodeID(v)))
	}
	key := p.Key(cfg.Cost, rem, m)
	if cfg.CutObjective {
		key = partition.Key{F: p.CountFeasible(), D: float64(p.Cut())}
	}
	return fmt.Sprintf("moves=%d bops=%d passes=%d key=%d/%.6f/%d/%.6f hash=%016x",
		st.MovesApplied, st.BucketOps, st.Passes, key.F, key.D, key.TSum, key.DE, hash.Sum64())
}

func TestKernelGolden(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for vi, vt := range kernelVariants {
			for _, subset := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/%s/subset=%v", seed, vt.name, subset)
				got := kernelGolden(t, seed, vi, subset)
				want, ok := kernelGoldenWant[name]
				if !ok {
					t.Errorf("%s: no pinned value; got\n\t%q: %q,", name, name, got)
					continue
				}
				if got != want {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
}

// kernelGoldenWant was captured from the kernel before its reference
// paths moved into the tests; the serial kernel must reproduce it exactly.
var kernelGoldenWant = map[string]string{
	"seed1/default/subset=false":       "moves=443 bops=5091 passes=11 key=3/0.942857/92/3.000000 hash=a12806c48942ad00",
	"seed1/default/subset=true":        "moves=241 bops=2598 passes=9 key=1/1.200000/98/2.000000 hash=519bdd1163ce368e",
	"seed1/pin-gain/subset=false":      "moves=401 bops=8074 passes=10 key=3/0.942857/79/2.000000 hash=f86d2bc3d87b1a9d",
	"seed1/pin-gain/subset=true":       "moves=241 bops=3521 passes=9 key=2/1.114286/85/2.000000 hash=f92a053cc3eda665",
	"seed1/cut-objective/subset=false": "moves=397 bops=4576 passes=10 key=3/27.000000/0/0.000000 hash=0e3321d83a5a03dd",
	"seed1/cut-objective/subset=true":  "moves=242 bops=2561 passes=9 key=1/32.000000/0/0.000000 hash=d890d8feabb116d9",
	"seed1/deep-levels/subset=false":   "moves=560 bops=6534 passes=14 key=3/0.814286/83/3.000000 hash=bd37846c28a67bb1",
	"seed1/deep-levels/subset=true":    "moves=291 bops=2914 passes=11 key=1/1.371429/100/2.000000 hash=8a0a57a77ec11e79",
	"seed2/default/subset=false":       "moves=1884 bops=25018 passes=26 key=2/1.220000/56/1.285714 hash=bd1f157474582465",
	"seed2/default/subset=true":        "moves=750 bops=6039 passes=19 key=0/2.310000/158/0.285714 hash=51502cabb74019be",
	"seed2/pin-gain/subset=false":      "moves=2693 bops=39184 passes=37 key=2/1.200000/51/1.642857 hash=92f9f7d853b07f74",
	"seed2/pin-gain/subset=true":       "moves=607 bops=5579 passes=15 key=0/2.290000/153/0.285714 hash=68b5eb291eb4d907",
	"seed2/cut-objective/subset=false": "moves=1282 bops=16839 passes=18 key=2/12.000000/0/0.000000 hash=f6a423562fc7970e",
	"seed2/cut-objective/subset=true":  "moves=391 bops=2998 passes=9 key=0/63.000000/0/0.000000 hash=aebba6e12cdc8b57",
	"seed2/deep-levels/subset=false":   "moves=2370 bops=31463 passes=33 key=2/1.210000/59/1.285714 hash=6cb9274002ee84fc",
	"seed2/deep-levels/subset=true":    "moves=369 bops=2839 passes=9 key=0/2.350000/153/0.285714 hash=f9a08388cf2b530f",
	"seed3/default/subset=false":       "moves=1882 bops=66834 passes=17 key=6/5.159392/72/5.000000 hash=12dfb54b3caf3313",
	"seed3/default/subset=true":        "moves=656 bops=13118 passes=10 key=0/14.921429/389/1.666667 hash=200e9ed44687ce4e",
	"seed3/pin-gain/subset=false":      "moves=4307 bops=177566 passes=38 key=6/5.373677/75/4.444444 hash=38e2c9a8dd5ad682",
	"seed3/pin-gain/subset=true":       "moves=640 bops=18603 passes=11 key=1/12.314286/312/3.444444 hash=4d5e9d26112f8485",
	"seed3/cut-objective/subset=false": "moves=2205 bops=79735 passes=20 key=6/21.000000/0/0.000000 hash=32943f938af7e892",
	"seed3/cut-objective/subset=true":  "moves=829 bops=16792 passes=13 key=0/128.000000/0/0.000000 hash=9119ead3dbe0a2e4",
	"seed3/deep-levels/subset=false":   "moves=2937 bops=106089 passes=27 key=6/5.142262/69/5.000000 hash=5dfcba277cc35657",
	"seed3/deep-levels/subset=true":    "moves=558 bops=11227 passes=9 key=0/14.361905/374/2.666667 hash=0aac1225a6e6e1b3",
	"seed4/default/subset=false":       "moves=921 bops=15464 passes=14 key=6/0.300000/217/4.000000 hash=da6040e2f9517bc3",
	"seed4/default/subset=true":        "moves=934 bops=14353 passes=21 key=4/0.500000/226/4.071429 hash=d0f2a51e852eb56b",
	"seed4/pin-gain/subset=false":      "moves=1179 bops=38828 passes=20 key=6/0.480000/185/4.285714 hash=0c2ccf82228be536",
	"seed4/pin-gain/subset=true":       "moves=894 bops=22854 passes=21 key=6/0.560000/168/4.285714 hash=bb4faf6de5739438",
	"seed4/cut-objective/subset=false": "moves=1083 bops=18688 passes=17 key=5/52.000000/0/0.000000 hash=6cd805300a7bf822",
	"seed4/cut-objective/subset=true":  "moves=889 bops=13455 passes=20 key=5/66.000000/0/0.000000 hash=704921c874c40e31",
	"seed4/deep-levels/subset=false":   "moves=1115 bops=20748 passes=19 key=6/0.320000/167/4.000000 hash=9bb1ed396edd6734",
	"seed4/deep-levels/subset=true":    "moves=572 bops=9041 passes=14 key=4/0.640000/229/4.000000 hash=0fa3fe21b279e7d4",
	"seed5/default/subset=false":       "moves=2627 bops=77424 passes=29 key=4/4.366295/71/4.000000 hash=b8fb11030ac8da71",
	"seed5/default/subset=true":        "moves=630 bops=11079 passes=13 key=0/12.957143/321/1.450000 hash=73958127551fd74d",
	"seed5/pin-gain/subset=false":      "moves=2746 bops=90060 passes=30 key=4/4.375000/74/2.450000 hash=c73593b68e4834e6",
	"seed5/pin-gain/subset=true":       "moves=788 bops=17976 passes=17 key=0/12.423810/300/1.450000 hash=4532edff1a57e1c1",
	"seed5/cut-objective/subset=false": "moves=2011 bops=59450 passes=22 key=4/22.000000/0/0.000000 hash=ceffec06c6a302bb",
	"seed5/cut-objective/subset=true":  "moves=667 bops=11745 passes=14 key=0/116.000000/0/0.000000 hash=42affd1102edf825",
	"seed5/deep-levels/subset=false":   "moves=2826 bops=84647 passes=32 key=4/4.349330/68/4.000000 hash=dbf5188e2cc1179f",
	"seed5/deep-levels/subset=true":    "moves=514 bops=9198 passes=11 key=0/13.040476/321/1.450000 hash=d001d9f2bf7693e5",
	"seed6/default/subset=false":       "moves=1446 bops=18825 passes=22 key=4/0.300000/138/2.428571 hash=0eb225152e095d3e",
	"seed6/default/subset=true":        "moves=900 bops=9478 passes=20 key=3/0.480000/168/1.857143 hash=982cfed22d0d3181",
	"seed6/pin-gain/subset=false":      "moves=1760 bops=40648 passes=29 key=4/0.662500/103/3.428571 hash=4e96e6d71f7a08c2",
	"seed6/pin-gain/subset=true":       "moves=468 bops=7586 passes=11 key=3/0.680000/148/3.428571 hash=edb8d0a01d02f221",
	"seed6/cut-objective/subset=false": "moves=1424 bops=20014 passes=21 key=4/31.000000/0/0.000000 hash=c4583d97a1b11540",
	"seed6/cut-objective/subset=true":  "moves=450 bops=4608 passes=10 key=3/56.000000/0/0.000000 hash=121ac6b212e8a2dc",
	"seed6/deep-levels/subset=false":   "moves=871 bops=13311 passes=13 key=4/0.607500/149/1.857143 hash=4ddbbe2d2539bba8",
	"seed6/deep-levels/subset=true":    "moves=1439 bops=15188 passes=32 key=4/0.400000/163/1.857143 hash=f7577737b2e1098f",
}
