package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpart/internal/board"
	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// fake is a registrable test engine. Behavior is injected per test through
// fakeBehavior (tests in this package run sequentially), so one set of
// registered names serves every test.
type fake struct {
	name string
	idx  int
}

func (f fake) Name() string       { return f.name }
func (f fake) Caps() Capabilities { return Capabilities{Summary: "test fake"} }
func (f fake) Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	return fakeBehavior(f.idx, ctx)
}

var (
	fakeBehavior func(i int, ctx context.Context) (*Result, error)
	fakesOnce    sync.Once
)

const numFakes = 6

// registerFakes installs test-fake-0..5 at ranks far above the shipped
// engines, so rank-ordered listings keep the real methods first.
func registerFakes() {
	fakesOnce.Do(func() {
		for i := 0; i < numFakes; i++ {
			Register(100+i, fake{name: fmt.Sprintf("test-fake-%d", i), idx: i})
		}
	})
}

func fakeMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{Method: fmt.Sprintf("test-fake-%d", i)}
	}
	return ms
}

// TestRaceNeverExceedsBudget drives six members through a two-token budget
// (one of which the caller holds, as driver.RunOpts would) and checks the
// peak number of concurrently running engines never exceeds the capacity.
// Run under -race this also exercises the result-slot and sink sharing.
func TestRaceNeverExceedsBudget(t *testing.T) {
	registerFakes()
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}

	var cur, peak atomic.Int64
	errFake := errors.New("fake engine failure")
	fakeBehavior = func(i int, ctx context.Context) (*Result, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return nil, errFake
	}

	budget := core.NewBudget(2)
	if !budget.TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	defer budget.Release()

	_, err := Race(context.Background(), h, dev, fakeMembers(numFakes), budget)
	if !errors.Is(err, errFake) {
		t.Fatalf("want the members' failure surfaced, got %v", err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds budget capacity 2", got)
	}
}

// TestRaceCancelsLosers mixes a real engine with blocking fakes: when the
// real member (index 0) finishes feasible at the K = M lower bound, every
// later fake must observe cancellation, and their context.Canceled returns
// must be absorbed rather than reported.
func TestRaceCancelsLosers(t *testing.T) {
	registerFakes()
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "big", DatasheetCells: 50, Pins: 50, Fill: 1.0} // fits one device: K = M = 1

	var cancelled atomic.Int64
	fakeBehavior = func(i int, ctx context.Context) (*Result, error) {
		<-ctx.Done()
		cancelled.Add(1)
		return nil, ctx.Err()
	}

	budget := core.NewBudget(4)
	if !budget.TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	defer budget.Release()

	members := []Member{{Method: "fpart"}, {Method: "test-fake-1"}, {Method: "test-fake-2"}, {Method: "test-fake-3"}}
	res, err := Race(context.Background(), h, dev, members, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.K != res.M {
		t.Fatalf("winner not at the lower bound: K=%d M=%d feasible=%v", res.K, res.M, res.Feasible)
	}
	if got := cancelled.Load(); got != 3 {
		t.Fatalf("want all 3 losing members cancelled, got %d", got)
	}
}

// TestRaceOptimalWinnerIsLowestIndex pins the schedule-independence rule:
// a later member reaching K = M first cancels only the members after it.
// The earlier member keeps running to completion and, being at the bound
// too, wins even though the later one finished first with fewer terminals.
func TestRaceOptimalWinnerIsLowestIndex(t *testing.T) {
	registerFakes()
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}

	split := partition.New(h, dev)
	split.Move(0, split.AddBlock()) // cuts nets: more terminals than whole
	whole := partition.New(h, dev)
	later := make(chan struct{})
	var earlyCancelled, lateCancelled atomic.Bool
	fakeBehavior = func(i int, ctx context.Context) (*Result, error) {
		switch i {
		case 0:
			<-later // finish only after member 1 has reported optimal
			earlyCancelled.Store(ctx.Err() != nil)
			return &Result{Partition: split, K: 1, M: 1, Feasible: true}, nil
		case 1:
			defer close(later)
			return &Result{Partition: whole, K: 1, M: 1, Feasible: true}, nil
		default:
			<-ctx.Done()
			lateCancelled.Store(true)
			return nil, ctx.Err()
		}
	}

	budget := core.NewBudget(4)
	if !budget.TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	defer budget.Release()

	res, err := Race(context.Background(), h, dev, fakeMembers(3), budget)
	if err != nil {
		t.Fatal(err)
	}
	if earlyCancelled.Load() {
		t.Error("member 0 was cancelled by a later optimal member")
	}
	if !lateCancelled.Load() {
		t.Error("member 2 was not cancelled by member 1's optimal result")
	}
	if res.Partition != split {
		t.Errorf("winner has terminal sum %d, want member 0's %d", res.Partition.TerminalSum(), split.TerminalSum())
	}
}

// TestRaceBoardAwareMembers races the same method under two board gates:
// the member on the over-constrained chain is demoted to infeasible inside
// runOne, so the crossbar member must win even though both produce the
// same partition.
func TestRaceBoardAwareMembers(t *testing.T) {
	h := ring(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	budget := core.NewBudget(2)
	if !budget.TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	defer budget.Release()

	ch := board.Board{Slots: 16, Topology: board.Chain, WiresPerLink: 1}
	xb := board.Board{Slots: 16, Topology: board.Crossbar}
	members := []Member{
		{Method: "fpart", Options: Options{Board: &ch}},
		{Method: "fpart", Options: Options{Board: &xb}},
	}
	res, err := Race(context.Background(), h, dev, members, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("crossbar member should have won feasible")
	}
	if res.Board == nil || !res.Board.Routable {
		t.Fatalf("winner's board report: %+v", res.Board)
	}

	registerFakes()
	badMembers := []Member{{Method: "test-fake-0", Options: Options{Board: &xb}}}
	if _, err := Race(context.Background(), h, dev, badMembers, budget); err == nil || !strings.Contains(err.Error(), "board-aware") {
		t.Errorf("non-board-aware member with a board: %v", err)
	}
}

func TestRaceRejectsBadMembers(t *testing.T) {
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	if _, err := Race(context.Background(), h, dev, nil, nil); err == nil {
		t.Error("empty member list accepted")
	}
	_, err := Race(context.Background(), h, dev, []Member{{Method: "nope"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "fpart") {
		t.Errorf("unknown member should fail quoting the registry, got %v", err)
	}
}

func TestRacePropagatesParentCancellation(t *testing.T) {
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Race(ctx, h, dev, []Member{{Method: "fpart"}, {Method: "kwayx"}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRaceMixedMethods races the paper's algorithm against every baseline
// on a real circuit under a shared budget — the engine-agnostic portfolio
// the registry exists for. Under -race this doubles as the detector pass
// over all four engines running concurrently.
func TestRaceMixedMethods(t *testing.T) {
	h := ring(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}

	budget := core.NewBudget(3)
	if !budget.TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	defer budget.Release()

	members := []Member{{Method: "fpart"}, {Method: "kwayx"}, {Method: "flow"}, {Method: "multilevel"}}
	res, err := Race(context.Background(), h, dev, members, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("mixed race infeasible: K=%d M=%d", res.K, res.M)
	}
	if res.Stats == nil {
		t.Fatal("winner should carry its engine's stats")
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}
