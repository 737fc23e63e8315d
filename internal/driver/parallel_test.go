package driver

// Tests for the shared parallelism clamp and the Options-based dispatch.

import (
	"context"
	"runtime"
	"testing"

	"fpart/internal/core"
	"fpart/internal/device"
)

func TestClampParallel(t *testing.T) {
	auto := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, auto}, {-3, auto}, {1, 1}, {4, 4},
	}
	for _, tc := range cases {
		if got := ClampParallel(tc.in); got != tc.want {
			t.Errorf("ClampParallel(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRunOptsHonoursCancelledAcquire(t *testing.T) {
	c, err := Load(Source{Builtin: "c3540"}, device.XC3042)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBudget(1)
	if !b.TryAcquire() {
		t.Fatal("fresh budget refused")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOpts(ctx, "fpart", c.Hypergraph, device.XC3042, Options{Budget: b}); err == nil {
		t.Error("RunOpts ran with no free token and a dead context")
	}
	// Once the token is free, a dispatch takes it and gives it back.
	b.Release()
	if _, err := RunOpts(context.Background(), "fpart", c.Hypergraph, device.XC3042, Options{Budget: b}); err != nil {
		t.Fatal(err)
	}
	if !b.TryAcquire() {
		t.Error("RunOpts leaked a budget token")
	}
}

func TestRunOptsMultilevelCancellation(t *testing.T) {
	c, err := Load(Source{Builtin: "c3540"}, device.XC3042)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOpts(ctx, "multilevel", c.Hypergraph, device.XC3042, Options{}); err == nil {
		t.Error("multilevel dispatch ignored a cancelled context")
	}
}
