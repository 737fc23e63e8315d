package driver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/engine"
	"fpart/internal/flow"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/mlfpart"
	"fpart/internal/multilevel"
	"fpart/internal/partition"
)

// solutionKey fingerprints an assignment: the block of every node in node
// order. Two runs agree iff their keys are equal.
func solutionKey(p *partition.Partition) string {
	h := p.Hypergraph()
	var sb strings.Builder
	for v := 0; v < h.NumNodes(); v++ {
		fmt.Fprintf(&sb, "%d,", p.Block(hypergraph.NodeID(v)))
	}
	return sb.String()
}

// TestRegistryDispatchMatchesDirectCalls is the dispatch differential
// guard: dispatching through the engine's method table (RunOpts with no
// budget and no sink) must produce solutions bit-identical to calling each
// algorithm package directly. Any drift means a table row changed
// behaviour, not just plumbing.
func TestRegistryDispatchMatchesDirectCalls(t *testing.T) {
	spec, _ := gen.ByName("c3540")
	h := gen.Generate(spec, device.XC3000)
	dev, _ := device.ByName("XC3020")
	ctx := context.Background()

	cases := []struct {
		method string
		direct func() (*partition.Partition, error)
	}{
		{"fpart", func() (*partition.Partition, error) {
			r, err := core.Run(ctx, h, dev, core.Default())
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		}},
		{"portfolio", func() (*partition.Partition, error) {
			r, err := core.Portfolio(ctx, h, dev, nil)
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		}},
		{"kwayx", func() (*partition.Partition, error) {
			r, err := core.Run(ctx, h, dev, core.KWayX())
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		}},
		{"flow", func() (*partition.Partition, error) {
			r, err := flow.Partition(h, dev, flow.Config{})
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		}},
		{"multilevel", func() (*partition.Partition, error) {
			r, err := multilevel.Partition(h, dev, multilevel.Config{})
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		}},
		{"mlfpart", func() (*partition.Partition, error) {
			r, err := mlfpart.Partition(h, dev, mlfpart.Config{})
			if err != nil {
				return nil, err
			}
			return r.Partition, nil
		}},
	}
	if len(cases) != len(engine.Names()) {
		t.Fatalf("differential test covers %d methods, method table has %v", len(cases), engine.Names())
	}
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			viaRegistry, err := RunOpts(ctx, tc.method, h, dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := tc.direct()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := solutionKey(viaRegistry.Partition), solutionKey(direct); got != want {
				t.Errorf("table dispatch diverged from the direct %s call", tc.method)
			}
		})
	}

	// R=1 equivalence: the same device with extra resource axes whose caps
	// can never bind (the circuit stamps no demands, so every block total
	// is 0) must reproduce the scalar trajectory bit-identically for every
	// method. This is the resource-vector refactor's differential guard:
	// the scalar path is the R=1 special case by construction, not by
	// accident.
	vdev := dev
	vdev.Resources = []device.Resource{{Name: "DSP", Cap: 1 << 30}, {Name: "LUT", Cap: 1 << 30}}
	for _, method := range engine.Names() {
		t.Run(method+"/vector-r1", func(t *testing.T) {
			scalar, err := RunOpts(ctx, method, h, dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			vector, err := RunOpts(ctx, method, h, vdev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if solutionKey(scalar.Partition) != solutionKey(vector.Partition) {
				t.Errorf("%s: non-binding resource axes changed the trajectory", method)
			}
			if scalar.K != vector.K || scalar.Feasible != vector.Feasible {
				t.Errorf("%s: K/Feasible drifted: scalar K=%d/%v vector K=%d/%v",
					method, scalar.K, scalar.Feasible, vector.K, vector.Feasible)
			}
		})
	}
}

// TestRunOptsErrorPaths covers the dispatch failure contract, table-driven
// over the method table so a newly added method is held to it
// automatically.
func TestRunOptsErrorPaths(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	c, err := Load(Source{Reader: strings.NewReader(tinyPHG), Format: "phg"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Hypergraph

	// Unknown methods are rejected with every valid name in the message,
	// before any budget token is taken.
	_, err = RunOpts(context.Background(), "anneal", h, dev, Options{})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, want := range append([]string{"anneal"}, engine.Names()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-method error missing %q: %v", want, err)
		}
	}

	// A context cancelled before dispatch returns ctx.Err() for every
	// method — no partial work, no panic.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range engine.Names() {
		res, err := RunOpts(cancelled, method, h, dev, Options{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled-before-start: want context.Canceled, got %v", method, err)
		}
		if res != nil {
			t.Errorf("%s: cancelled dispatch returned a result", method)
		}
		// The same holds one layer down, where no budget front-runs the
		// engine: each engine's own upfront ctx check must fire.
		if _, err := engine.Run(cancelled, method, h, dev, engine.Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: engine-level cancelled-before-start: want context.Canceled, got %v", method, err)
		}
	}

	// Nil sinks are free: every engine must run to completion without a
	// sink, a budget, or any option set.
	for _, method := range engine.Names() {
		if _, err := RunOpts(context.Background(), method, h, dev, Options{}); err != nil {
			t.Errorf("%s: nil-sink run failed: %v", method, err)
		}
	}
}
