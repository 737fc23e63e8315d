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
// partition and its K: the registry engines through the registry, the
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
		r, err := wcdp.Partition(h, dev, wcdp.Config{})
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
				eng, _ := Lookup(method)
				r, err := eng.Run(context.Background(), h, dev, Options{})
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
