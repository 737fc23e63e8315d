package driver

import (
	"bytes"
	"context"
	"fmt"
	"strings"
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

// counterBLIF is an n-bit ripple counter: n LUT+latch pairs chained by
// carry logic, so the mapped circuit carries exactly n flip-flops.
func counterBLIF(n int) string {
	var sb strings.Builder
	sb.WriteString(".model counter\n.inputs en clk\n.outputs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " q%d", i)
	}
	sb.WriteString("\n")
	carry := "en"
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ".names %s q%d d%d\n10 1\n01 1\n", carry, i, i)
		fmt.Fprintf(&sb, ".latch d%d q%d re clk 0\n", i, i)
		if i+1 < n {
			fmt.Fprintf(&sb, ".names %s q%d c%d\n11 1\n", carry, i, i)
			carry = fmt.Sprintf("c%d", i)
		}
	}
	sb.WriteString(".end\n")
	return sb.String()
}

// TestBlifFFColumnBindsThroughLoad is the regression for BLIF flip-flops
// reaching a device cap from a user-facing spec: a 32-latch counter loaded
// through Load carries an FF column of 32, and "CLB:500,FF:8/200" caps it,
// so M = 4 and every engine returns at least 4 feasible devices, each
// holding at most 8 flip-flops.
func TestBlifFFColumnBindsThroughLoad(t *testing.T) {
	dev, err := device.ParseSpec("CLB:500,FF:8/200")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Load(Source{Reader: strings.NewReader(counterBLIF(32)), Format: "blif"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Hypergraph
	if got := h.TotalResource("FF"); got != 32 {
		t.Fatalf("circuit FF total = %d, want 32", got)
	}
	if m := device.LowerBound(h, dev); m != 4 {
		t.Fatalf("M = %d, want 4 (32 FFs / 8)", m)
	}
	for _, method := range Methods() {
		t.Run(method, func(t *testing.T) {
			r, err := RunOpts(context.Background(), method, h, dev, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.M != 4 || !r.Feasible || r.K < 4 {
				t.Fatalf("K = %d, M = %d, feasible = %v: want M = 4 and K >= 4 feasible", r.K, r.M, r.Feasible)
			}
			p := r.Partition
			for b := 0; b < p.NumBlocks(); b++ {
				if ff := p.Res(partition.BlockID(b), 0); ff > 8 {
					t.Errorf("block %d holds %d FFs > cap 8", b, ff)
				}
			}
		})
	}
}
