package multilevel

// Cancellation and deadline tests for PartitionCtx, mirroring
// internal/core/context_test.go.

import (
	"context"
	"errors"
	"testing"
	"time"

	"fpart/internal/device"
	"fpart/internal/gen"
)

func TestPartitionCtxPreCancelledReturnsCanceled(t *testing.T) {
	h := ring(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := PartitionCtx(ctx, h, dev, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r != nil {
		t.Error("cancelled run returned a result")
	}
}

func TestPartitionCtxDeadlineAbortsPromptly(t *testing.T) {
	// A large generated circuit whose V-cycles take far longer than the
	// deadline: the per-level polling must surface it quickly.
	spec, ok := gen.ByName("s38584")
	if !ok {
		t.Fatal("spec s38584 missing")
	}
	h := gen.Generate(spec, device.XC3000)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := PartitionCtx(ctx, h, device.XC3020, Config{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Generous bound: a full multilevel run takes far longer, and the
	// refinement engine polls every 64 applied moves.
	if elapsed > 2*time.Second {
		t.Errorf("run took %v to notice a 30ms deadline", elapsed)
	}
}

func TestPartitionMatchesPartitionCtx(t *testing.T) {
	h := ring(t, 3, 12, 4)
	dev := device.Device{Name: "d", DatasheetCells: 16, Pins: 30, Fill: 1.0}
	a, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionCtx(context.Background(), h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K || a.Feasible != b.Feasible || a.Stats.Iterations != b.Stats.Iterations {
		t.Errorf("wrapper diverged: K %d/%d feasible %v/%v iters %d/%d",
			a.K, b.K, a.Feasible, b.Feasible, a.Stats.Iterations, b.Stats.Iterations)
	}
}
