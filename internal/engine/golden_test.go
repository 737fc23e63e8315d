package engine

// Regression pins for every engine's end-to-end outcome: K, cut and an
// FNV-64a hash of the final assignment on fixed instances. Any change to
// an engine's trajectory — a constant, a tie-break, a termination cap —
// moves at least one pinned value.

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/mlfpart"
	"fpart/internal/partition"
	"fpart/internal/setcover"
	"fpart/internal/wcdp"
)

// goldenInstances are two Table 6 circuit/device pairs, one per family.
var goldenInstances = []struct{ circuit, device string }{
	{"c3540", "XC3042"},
	{"c7552", "XC2064"},
}

// goldenOutcome renders the pinned outcome of one partition.
func goldenOutcome(p *partition.Partition, k int) string {
	hash := fnv.New64a()
	for v := 0; v < p.Hypergraph().NumNodes(); v++ {
		fmt.Fprintf(hash, "%d,", p.Block(hypergraph.NodeID(v)))
	}
	return fmt.Sprintf("K=%d cut=%d hash=%016x", k, p.Cut(), hash.Sum64())
}

// goldenCircuit generates a Table 1 circuit for the named device.
func goldenCircuit(t *testing.T, circuit, devName string) (*hypergraph.Hypergraph, device.Device) {
	t.Helper()
	dev, ok := device.ByName(devName)
	if !ok {
		t.Fatalf("unknown device %q", devName)
	}
	spec, ok := gen.ByName(circuit)
	if !ok {
		t.Fatalf("unknown circuit %q", circuit)
	}
	return gen.Generate(spec, dev.Family), dev
}

// goldenRuns maps each pinned method to a runner returning the final
// partition and its K: the table's methods through Run, the
// set-cover and WCDP baselines directly.
var goldenRuns = map[string]func(*hypergraph.Hypergraph, device.Device) (*partition.Partition, int, error){
	"setcover": func(h *hypergraph.Hypergraph, dev device.Device) (*partition.Partition, int, error) {
		r, err := setcover.Partition(h, dev)
		if err != nil {
			return nil, 0, err
		}
		return r.Partition, r.K, nil
	},
	"wcdp": func(h *hypergraph.Hypergraph, dev device.Device) (*partition.Partition, int, error) {
		r, err := wcdp.Partition(h, dev)
		if err != nil {
			return nil, 0, err
		}
		return r.Partition, r.K, nil
	},
}

func TestEngineGolden(t *testing.T) {
	methods := append(Names(), "setcover", "wcdp")
	for _, inst := range goldenInstances {
		h, dev := goldenCircuit(t, inst.circuit, inst.device)
		for _, method := range methods {
			name := fmt.Sprintf("%s/%s/%s", inst.circuit, inst.device, method)
			var p *partition.Partition
			var k int
			if run, ok := goldenRuns[method]; ok {
				var err error
				if p, k, err = run(h, dev); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			} else {
				r, err := Run(context.Background(), method, h, dev, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				p, k = r.Partition, r.K
			}
			checkGolden(t, name, goldenOutcome(p, k))
		}
	}

	// The forced V-cycle: s38584 coarsens through levels small enough for
	// all three refinement tiers (corridor flow, pair FM, greedy sweeps).
	h, dev := goldenCircuit(t, "s38584", "XC3090")
	r, err := mlfpart.Partition(h, dev, mlfpart.Config{FlatThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Levels == 0 {
		t.Fatal("mlfpart V-cycle did not coarsen")
	}
	checkGolden(t, "s38584/XC3090/mlfpart-vcycle", goldenOutcome(r.Partition, r.K))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, ok := engineGoldenWant[name]
	if !ok {
		t.Errorf("%s: no pinned value; got\n\t%q: %q,", name, name, got)
		return
	}
	if got != want {
		t.Errorf("%s:\n got %s\nwant %s", name, got, want)
	}
}

// engineGoldenWant was captured before the never-set engine knobs were
// folded into constants; every engine must reproduce it exactly.
var engineGoldenWant = map[string]string{
	"c3540/XC3042/fpart":           "K=3 cut=30 hash=95f0af8b3c891d03",
	"c3540/XC3042/portfolio":       "K=3 cut=30 hash=95f0af8b3c891d03",
	"c3540/XC3042/kwayx":           "K=3 cut=44 hash=fa11c21995d1ac8a",
	"c3540/XC3042/flow":            "K=3 cut=42 hash=51386c40257d06ba",
	"c3540/XC3042/multilevel":      "K=3 cut=36 hash=e01c3ebb1b2b1038",
	"c3540/XC3042/mlfpart":         "K=3 cut=30 hash=95f0af8b3c891d03",
	"c3540/XC3042/setcover":        "K=3 cut=52 hash=e3b0941572904509",
	"c3540/XC3042/wcdp":            "K=3 cut=57 hash=3c11630cf3599052",
	"c7552/XC2064/fpart":           "K=12 cut=152 hash=1a5ff49b51195880",
	"c7552/XC2064/portfolio":       "K=12 cut=147 hash=088c76b860698c52",
	"c7552/XC2064/kwayx":           "K=13 cut=190 hash=0f3799cff11412db",
	"c7552/XC2064/flow":            "K=13 cut=179 hash=2142cf1721913c27",
	"c7552/XC2064/multilevel":      "K=12 cut=152 hash=a3f1000727274cec",
	"c7552/XC2064/mlfpart":         "K=12 cut=152 hash=1a5ff49b51195880",
	"c7552/XC2064/setcover":        "K=12 cut=162 hash=2aebb41ca02f5838",
	"c7552/XC2064/wcdp":            "K=13 cut=169 hash=dc82a87509ef864e",
	"s38584/XC3090/mlfpart-vcycle": "K=11 cut=216 hash=8fac88d4b6b09157",
}

// flowTables lists the Tables 2–5 circuit/device grid: every circuit on
// XC3020, XC3042 and XC3090, and the four Table 5 circuits on XC2064.
var flowTables = []struct {
	device   string
	circuits []string
}{
	{"XC3020", mcncCircuits},
	{"XC3042", mcncCircuits},
	{"XC3090", mcncCircuits},
	{"XC2064", []string{"c3540", "c5315", "c7552", "c6288"}},
}

var mcncCircuits = []string{
	"c3540", "c5315", "c6288", "c7552",
	"s5378", "s9234", "s13207", "s15850", "s38417", "s38584",
}

// TestFlowTablesGolden pins the flow engine's trajectory on every
// Tables 2–5 pair: the FBB-MW carve, its seed fallback and the peel
// driver. TestEngineGolden covers two pairs; this grid reaches the
// pad-only remainders, fallback carves and resource-free large circuits
// the two pairs miss.
func TestFlowTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs flow on all 34 Tables 2–5 pairs")
	}
	for _, tab := range flowTables {
		for _, circuit := range tab.circuits {
			name := circuit + "/" + tab.device
			h, dev := goldenCircuit(t, circuit, tab.device)
			r, err := Run(context.Background(), "flow", h, dev, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := goldenOutcome(r.Partition, r.K)
			want, ok := flowTablesWant[name]
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

// flowTablesWant holds flow's outcomes on the Tables 2–5 grid.
var flowTablesWant = map[string]string{
	"c3540/XC3020":  "K=5 cut=63 hash=8acd19945d12a327",
	"c5315/XC3020":  "K=8 cut=85 hash=32efff64acc4300d",
	"c6288/XC3020":  "K=15 cut=248 hash=309bb9f7f439a9c1",
	"c7552/XC3020":  "K=9 cut=110 hash=c6f2fa4ba37da976",
	"s5378/XC3020":  "K=7 cut=129 hash=cc1c9dded7e69a77",
	"s9234/XC3020":  "K=8 cut=169 hash=3f4cafe5938b71d3",
	"s13207/XC3020": "K=17 cut=341 hash=e216591835f6a953",
	"s15850/XC3020": "K=15 cut=245 hash=a503eb3e8d0c9e0d",
	"s38417/XC3020": "K=39 cut=632 hash=e751ab6f4fdc2708",
	"s38584/XC3020": "K=51 cut=670 hash=46bbec515e10b000",
	"c3540/XC3042":  "K=3 cut=42 hash=51386c40257d06ba",
	"c5315/XC3042":  "K=5 cut=55 hash=27f3966e26ff9e9f",
	"c6288/XC3042":  "K=7 cut=183 hash=9dbea86438d45956",
	"c7552/XC3042":  "K=5 cut=74 hash=64070e648445cf47",
	"s5378/XC3042":  "K=3 cut=63 hash=440a17bfc0609d92",
	"s9234/XC3042":  "K=4 cut=145 hash=51f73cc9a6bea6c1",
	"s13207/XC3042": "K=8 cut=265 hash=9d5e853f45b06df4",
	"s15850/XC3042": "K=7 cut=239 hash=6cda2e7e4c020f8f",
	"s38417/XC3042": "K=18 cut=546 hash=652d76784fedc923",
	"s38584/XC3042": "K=23 cut=451 hash=e57e835bdfe3a4b4",
	"c3540/XC3090":  "K=1 cut=0 hash=b947f7d7260e5459",
	"c5315/XC3090":  "K=3 cut=44 hash=41f8ea7f4ecbfb4f",
	"c6288/XC3090":  "K=3 cut=137 hash=47a605d0526e2f82",
	"c7552/XC3090":  "K=3 cut=54 hash=941b4fe40d1552fe",
	"s5378/XC3090":  "K=2 cut=39 hash=9c3f4a33aa38f029",
	"s9234/XC3090":  "K=2 cut=61 hash=3ca04285dafbc1d1",
	"s13207/XC3090": "K=4 cut=182 hash=ef172efa7115b9e9",
	"s15850/XC3090": "K=4 cut=193 hash=b5eccc51b8656684",
	"s38417/XC3090": "K=10 cut=527 hash=5644a11ec15b2dcc",
	"s38584/XC3090": "K=11 cut=460 hash=f732d96c3ddb8062",
	"c3540/XC2064":  "K=7 cut=108 hash=50ec03bd044adfe3",
	"c5315/XC2064":  "K=11 cut=140 hash=9fe6c746c3899db7",
	"c7552/XC2064":  "K=13 cut=179 hash=2142cf1721913c27",
	"c6288/XC2064":  "K=14 cut=252 hash=289fabb2c1edd119",
}
