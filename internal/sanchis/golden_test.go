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
// covers: the published default, PinGain, the cut objective, and
// first-level gains alone — both with the §3.4 key and in the shape the
// k-way.x baseline and pair-FM refinement run (cut objective, no solution
// stacks).
var kernelVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"default", func(*Config) {}},
	{"pin-gain", func(c *Config) { c.PinGain = true }},
	{"cut-objective", func(c *Config) { c.CutObjective = true }},
	{"level1", func(c *Config) { c.UseLevel2 = false }},
	{"level1-cut", func(c *Config) {
		c.UseLevel2 = false
		c.CutObjective = true
		c.StackDepth = -1
	}},
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
// paths moved into the tests, and the level1 rows while first-level
// selection still ran the full scan; the kernel must reproduce it exactly.
// The counter columns of every row with solution stacks were re-pinned
// when the engine started skipping passes from recorded fixed points: the
// skipped passes add nothing to moves, bops and passes, while key and hash
// stayed identical on every row.
var kernelGoldenWant = map[string]string{
	"seed1/default/subset=false":       "moves=402 bops=4631 passes=10 key=3/0.942857/92/3.000000 hash=a12806c48942ad00",
	"seed1/default/subset=true":        "moves=214 bops=2304 passes=8 key=1/1.200000/98/2.000000 hash=519bdd1163ce368e",
	"seed1/pin-gain/subset=false":      "moves=284 bops=5683 passes=7 key=3/0.942857/79/2.000000 hash=f86d2bc3d87b1a9d",
	"seed1/pin-gain/subset=true":       "moves=160 bops=2327 passes=6 key=2/1.114286/85/2.000000 hash=f92a053cc3eda665",
	"seed1/cut-objective/subset=false": "moves=316 bops=3670 passes=8 key=3/27.000000/0/0.000000 hash=0e3321d83a5a03dd",
	"seed1/cut-objective/subset=true":  "moves=134 bops=1385 passes=5 key=1/32.000000/0/0.000000 hash=d890d8feabb116d9",
	"seed1/level1/subset=false":        "moves=325 bops=3879 passes=8 key=3/0.942857/85/3.000000 hash=0de84317ef2cfa0d",
	"seed1/level1/subset=true":         "moves=133 bops=1299 passes=5 key=1/1.714286/107/2.000000 hash=d64eb2e966072d60",
	"seed1/level1-cut/subset=false":    "moves=122 bops=1483 passes=3 key=3/28.000000/0/0.000000 hash=4271ba05c919d97b",
	"seed1/level1-cut/subset=true":     "moves=53 bops=523 passes=2 key=1/34.000000/0/0.000000 hash=d64eb2e966072d60",
	"seed2/default/subset=false":       "moves=1742 bops=23116 passes=24 key=2/1.220000/56/1.285714 hash=bd1f157474582465",
	"seed2/default/subset=true":        "moves=710 bops=5707 passes=18 key=0/2.310000/158/0.285714 hash=51502cabb74019be",
	"seed2/pin-gain/subset=false":      "moves=2482 bops=36058 passes=34 key=2/1.200000/51/1.642857 hash=92f9f7d853b07f74",
	"seed2/pin-gain/subset=true":       "moves=487 bops=4469 passes=12 key=0/2.290000/153/0.285714 hash=68b5eb291eb4d907",
	"seed2/cut-objective/subset=false": "moves=944 bops=12378 passes=13 key=2/12.000000/0/0.000000 hash=f6a423562fc7970e",
	"seed2/cut-objective/subset=true":  "moves=315 bops=2378 passes=7 key=0/63.000000/0/0.000000 hash=aebba6e12cdc8b57",
	"seed2/level1/subset=false":        "moves=1599 bops=20589 passes=22 key=2/1.220000/60/1.285714 hash=fbcf698d1864055c",
	"seed2/level1/subset=true":         "moves=501 bops=3811 passes=12 key=0/2.340000/169/0.000000 hash=547dc3cd8647269f",
	"seed2/level1-cut/subset=false":    "moves=305 bops=3677 passes=4 key=2/13.000000/0/0.000000 hash=77a0e9f49479d9c7",
	"seed2/level1-cut/subset=true":     "moves=145 bops=1006 passes=3 key=0/64.000000/0/0.000000 hash=1df7e880776b2c66",
	"seed3/default/subset=false":       "moves=1666 bops=58700 passes=15 key=6/5.159392/72/5.000000 hash=12dfb54b3caf3313",
	"seed3/default/subset=true":        "moves=595 bops=11854 passes=9 key=0/14.921429/389/1.666667 hash=200e9ed44687ce4e",
	"seed3/pin-gain/subset=false":      "moves=3762 bops=154347 passes=33 key=6/5.373677/75/4.444444 hash=38e2c9a8dd5ad682",
	"seed3/pin-gain/subset=true":       "moves=534 bops=15345 passes=9 key=1/12.314286/312/3.444444 hash=4d5e9d26112f8485",
	"seed3/cut-objective/subset=false": "moves=1886 bops=67651 passes=17 key=6/21.000000/0/0.000000 hash=32943f938af7e892",
	"seed3/cut-objective/subset=true":  "moves=651 bops=12993 passes=10 key=0/128.000000/0/0.000000 hash=9119ead3dbe0a2e4",
	"seed3/level1/subset=false":        "moves=3290 bops=114400 passes=29 key=6/5.125132/71/4.444444 hash=9a220b2f6dd5e647",
	"seed3/level1/subset=true":         "moves=740 bops=14985 passes=11 key=0/14.283333/371/3.444444 hash=bf1512b46ec41d92",
	"seed3/level1-cut/subset=false":    "moves=510 bops=14588 passes=4 key=6/30.000000/0/0.000000 hash=3d721ae25ff02978",
	"seed3/level1-cut/subset=true":     "moves=239 bops=4196 passes=3 key=0/127.000000/0/0.000000 hash=f903465571316f7e",
	"seed4/default/subset=false":       "moves=854 bops=14334 passes=13 key=6/0.300000/217/4.000000 hash=da6040e2f9517bc3",
	"seed4/default/subset=true":        "moves=888 bops=13640 passes=20 key=4/0.500000/226/4.071429 hash=d0f2a51e852eb56b",
	"seed4/pin-gain/subset=false":      "moves=884 bops=29055 passes=15 key=6/0.480000/185/4.285714 hash=0c2ccf82228be536",
	"seed4/pin-gain/subset=true":       "moves=852 bops=21781 passes=20 key=6/0.560000/168/4.285714 hash=bb4faf6de5739438",
	"seed4/cut-objective/subset=false": "moves=1018 bops=17584 passes=16 key=5/52.000000/0/0.000000 hash=6cd805300a7bf822",
	"seed4/cut-objective/subset=true":  "moves=844 bops=12750 passes=19 key=5/66.000000/0/0.000000 hash=704921c874c40e31",
	"seed4/level1/subset=false":        "moves=1064 bops=17431 passes=16 key=5/0.340000/213/4.285714 hash=e5086a9af5a44b80",
	"seed4/level1/subset=true":         "moves=821 bops=11616 passes=18 key=4/0.920000/235/4.000000 hash=ceeb85cdc11d7313",
	"seed4/level1-cut/subset=false":    "moves=395 bops=6475 passes=6 key=5/53.000000/0/0.000000 hash=c3d3672f22d0c5ec",
	"seed4/level1-cut/subset=true":     "moves=183 bops=2653 passes=4 key=4/61.000000/0/0.000000 hash=c08586133918687d",
	"seed5/default/subset=false":       "moves=2541 bops=74835 passes=28 key=4/4.366295/71/4.000000 hash=b8fb11030ac8da71",
	"seed5/default/subset=true":        "moves=540 bops=9394 passes=11 key=0/12.957143/321/1.450000 hash=73958127551fd74d",
	"seed5/pin-gain/subset=false":      "moves=2194 bops=71790 passes=24 key=4/4.375000/74/2.450000 hash=c73593b68e4834e6",
	"seed5/pin-gain/subset=true":       "moves=666 bops=15047 passes=14 key=0/12.423810/300/1.450000 hash=4532edff1a57e1c1",
	"seed5/cut-objective/subset=false": "moves=1571 bops=45941 passes=17 key=4/22.000000/0/0.000000 hash=ceffec06c6a302bb",
	"seed5/cut-objective/subset=true":  "moves=582 bops=10087 passes=12 key=0/116.000000/0/0.000000 hash=42affd1102edf825",
	"seed5/level1/subset=false":        "moves=1392 bops=39643 passes=15 key=4/4.332143/70/2.900000 hash=aa3f048b7253511d",
	"seed5/level1/subset=true":         "moves=748 bops=10743 passes=13 key=0/14.461905/360/1.000000 hash=7bd629aebdbb1159",
	"seed5/level1-cut/subset=false":    "moves=416 bops=10105 passes=4 key=4/27.000000/0/0.000000 hash=75b6967757826d65",
	"seed5/level1-cut/subset=true":     "moves=200 bops=2482 passes=3 key=0/123.000000/0/0.000000 hash=78ac247ac0ba2006",
	"seed6/default/subset=false":       "moves=1384 bops=18019 passes=21 key=4/0.300000/138/2.428571 hash=0eb225152e095d3e",
	"seed6/default/subset=true":        "moves=810 bops=8520 passes=18 key=3/0.480000/168/1.857143 hash=982cfed22d0d3181",
	"seed6/pin-gain/subset=false":      "moves=1453 bops=33545 passes=24 key=4/0.662500/103/3.428571 hash=4e96e6d71f7a08c2",
	"seed6/pin-gain/subset=true":       "moves=300 bops=4838 passes=7 key=3/0.680000/148/3.428571 hash=edb8d0a01d02f221",
	"seed6/cut-objective/subset=false": "moves=1356 bops=19136 passes=20 key=4/31.000000/0/0.000000 hash=c4583d97a1b11540",
	"seed6/cut-objective/subset=true":  "moves=405 bops=4154 passes=9 key=3/56.000000/0/0.000000 hash=121ac6b212e8a2dc",
	"seed6/level1/subset=false":        "moves=1428 bops=16968 passes=21 key=4/0.300000/143/3.000000 hash=e4d219591ca30899",
	"seed6/level1/subset=true":         "moves=540 bops=5632 passes=12 key=3/0.520000/165/2.428571 hash=8f075a1f5c3dcc20",
	"seed6/level1-cut/subset=false":    "moves=340 bops=4303 passes=5 key=4/39.000000/0/0.000000 hash=dcabdf34e06d5f30",
	"seed6/level1-cut/subset=true":     "moves=135 bops=1335 passes=3 key=3/58.000000/0/0.000000 hash=63ac495e7e9eb6b8",
}
