package core

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpart/internal/device"
	"fpart/internal/obs"
)

// goid returns the current goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestBudgetFanSchedule drives Fan with fake runners at three capacities
// (the caller holding one token, as driver.RunOpts does) and pins its
// schedule: peak concurrency never exceeds the capacity, run 0 executes
// on the calling goroutine, and the runs that found no spare token follow
// it there in index order. Run 1 blocks until run 0 has finished, so it
// holds the only spare token of the two-token budget for the whole spawn
// loop and the schedule is deterministic.
func TestBudgetFanSchedule(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		name   string
		budget *Budget
		caller []int // runs expected on the calling goroutine, in order
	}{
		{"unit", NewBudget(1), []int{0, 1, 2, 3, 4}},
		{"two", NewBudget(2), []int{0, 2, 3, 4}},
		{"nil", nil, []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.budget.TryAcquire() {
				t.Fatal("fresh budget refused a token")
			}
			defer tc.budget.Release()

			self := goid()
			var (
				mu     sync.Mutex
				caller []int
				cur    atomic.Int64
				peak   atomic.Int64
				ran    [n]atomic.Bool
			)
			zeroDone := make(chan struct{})
			labels := func(i int) pprof.LabelSet { return pprof.Labels("candidate", strconv.Itoa(i)) }
			tc.budget.Fan(context.Background(), n, labels, func(i int) {
				c := cur.Add(1)
				for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
				}
				defer cur.Add(-1)
				ran[i].Store(true)
				if goid() == self {
					mu.Lock()
					caller = append(caller, i)
					mu.Unlock()
				}
				switch i {
				case 0:
					close(zeroDone)
				case 1:
					<-zeroDone
				default:
					time.Sleep(2 * time.Millisecond)
				}
			})

			for i := range ran {
				if !ran[i].Load() {
					t.Errorf("run %d never happened", i)
				}
			}
			if limit := int64(tc.budget.Cap()); limit > 0 && peak.Load() > limit {
				t.Errorf("peak concurrency %d exceeds budget capacity %d", peak.Load(), limit)
			}
			if !slices.Equal(caller, tc.caller) {
				t.Errorf("runs on the calling goroutine = %v, want %v", caller, tc.caller)
			}
		})
	}
}

// TestPortfolioCancelsLosers runs the default mix sequentially (a held
// one-token budget) on an instance where member 0 reaches K = M: every
// later member must start on a cancelled context, and their
// context.Canceled returns must be absorbed rather than reported.
func TestPortfolioCancelsLosers(t *testing.T) {
	h := ringOfClusters(t, 2, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 14, Pins: 30, Fill: 1.0}
	b := NewBudget(1)
	if !b.TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	defer b.Release()

	var c obs.Collector
	cfgs := DefaultPortfolio()
	for i := range cfgs {
		cfgs[i].Budget = b
		cfgs[i].Sink = &c
	}
	r, err := Portfolio(context.Background(), h, dev, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !atLowerBound(r) {
		t.Fatalf("winner not at the lower bound: K=%d M=%d feasible=%v", r.K, r.M, r.Feasible)
	}
	if got := c.Count(obs.RunEnd); got != 1 {
		t.Errorf("RunEnd events = %d, want only member 0's", got)
	}
	if got, want := c.Count(obs.Cancelled), len(cfgs)-1; got != want {
		t.Errorf("Cancelled events = %d, want all %d losing members", got, want)
	}
}

// TestBudgetSemantics pins the semaphore: capacity, clamping, release,
// context-aware Acquire, and the inert nil budget.
func TestBudgetSemantics(t *testing.T) {
	b := NewBudget(2)
	if b.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", b.Cap())
	}
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("fresh budget refused its capacity")
	}
	if b.TryAcquire() {
		t.Fatal("budget over-granted")
	}
	b.Release()
	if !b.TryAcquire() {
		t.Fatal("released token not reusable")
	}
	if err := NewBudget(0); err.Cap() != 1 {
		t.Errorf("NewBudget(0) capacity = %d, want clamp to 1", err.Cap())
	}

	// Acquire honours the context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	full := NewBudget(1)
	full.TryAcquire()
	if err := full.Acquire(ctx); err == nil {
		t.Error("Acquire on a full budget ignored a dead context")
	}

	// The nil budget is unlimited and inert.
	var nb *Budget
	if !nb.TryAcquire() {
		t.Error("nil budget refused")
	}
	if err := nb.Acquire(context.Background()); err != nil {
		t.Error("nil budget Acquire errored")
	}
	nb.Release()
	if nb.Cap() != 0 {
		t.Error("nil budget reports capacity")
	}
}
