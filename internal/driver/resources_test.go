package driver

import (
	"bytes"
	"context"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/mlfpart"
	"fpart/internal/partition"
)

// TestBindingResourceVectors runs every registered method, plus the
// forced mlfpart V-cycle, on a stamped netlist whose DSP and BRAM axes
// bind: the resource lower bound (M = 16) exceeds the size bound. Every
// engine must return a feasible partition on at least M devices. An engine
// that coarsens, trims or carves on size and pins alone packs too many
// DSP/BRAM cells into one device and returns fewer, infeasible blocks.
func TestBindingResourceVectors(t *testing.T) {
	var buf bytes.Buffer
	stamps := []gen.ResStamp{{Name: "DSP", Period: 16}, {Name: "BRAM", Period: 64}}
	if err := gen.StreamPHG(&buf, 3000, 0, 1, false, stamps); err != nil {
		t.Fatal(err)
	}
	dev, err := device.ParseSpec("LUT:400,DSP:12,BRAM:4/200")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Load(Source{Reader: &buf, Format: "phg"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Hypergraph
	ctx := context.Background()

	check := func(t *testing.T, p *partition.Partition, k, m int, feasible bool) {
		t.Helper()
		t.Logf("K = %d, M = %d, feasible = %v", k, m, feasible)
		if m != 16 {
			t.Fatalf("lower bound M = %d, want 16: the resource axes no longer bind", m)
		}
		if !feasible || k < m {
			t.Errorf("K = %d, M = %d, feasible = %v: want a feasible partition with K >= M", k, m, feasible)
		}
		if err := p.Validate(); err != nil {
			t.Error(err)
		}
	}
	for _, method := range Methods() {
		t.Run(method, func(t *testing.T) {
			r, err := RunOpts(ctx, method, h, dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, r.Partition, r.K, r.M, r.Feasible)
		})
	}
	t.Run("mlfpart-vcycle", func(t *testing.T) {
		r, err := mlfpart.PartitionCtx(ctx, h, dev, mlfpart.Config{FlatThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Levels == 0 {
			t.Fatal("the V-cycle did not run")
		}
		check(t, r.Partition, r.K, r.M, r.Feasible)
	})
}
