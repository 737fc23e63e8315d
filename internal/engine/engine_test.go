package engine

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"fpart/internal/board"
	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// ring builds c clusters of n nodes each, chained into a cycle, with pads —
// the standard small-but-nontrivial test circuit of the baseline packages.
func ring(t testing.TB, c, n, pads int) *hypergraph.Hypergraph {
	t.Helper()
	var b hypergraph.Builder
	sets := make([][]hypergraph.NodeID, c)
	for ci := 0; ci < c; ci++ {
		for i := 0; i < n; i++ {
			sets[ci] = append(sets[ci], b.AddInterior("v", 1))
		}
		for i := 0; i+1 < n; i++ {
			b.AddNet("in", sets[ci][i], sets[ci][i+1])
			if i+2 < n {
				b.AddNet("in2", sets[ci][i], sets[ci][i+2])
			}
		}
	}
	for ci := 0; ci < c; ci++ {
		b.AddNet("bridge", sets[ci][n-1], sets[(ci+1)%c][0])
	}
	for i := 0; i < pads; i++ {
		pd := b.AddPad("p")
		b.AddNet("pe", pd, sets[i%c][i%n])
	}
	return b.MustBuild()
}

// realNames is the head of the method table; tests assert on this prefix
// rather than the whole listing.
var realNames = []string{"fpart", "portfolio", "kwayx", "flow", "multilevel"}

func TestRegistryOrderAndCaps(t *testing.T) {
	list := List()
	if len(list) < len(realNames) {
		t.Fatalf("method table too small: %+v", list)
	}
	for i, want := range realNames {
		m := list[i]
		if m.Name != want {
			t.Fatalf("List()[%d] = %q, want %q (table order broken)", i, m.Name, want)
		}
		if m.Summary == "" {
			t.Errorf("%s: missing summary", m.Name)
		}
		wantBudgeted := want == "portfolio"
		if m.Budgeted != wantBudgeted {
			t.Errorf("%s: Budgeted = %v, want %v", m.Name, m.Budgeted, wantBudgeted)
		}
	}
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("Names() lists %q twice: dispatch would be ambiguous", name)
		}
		seen[name] = true
		if m, err := Lookup(name); err != nil || m.Name != name {
			t.Errorf("Names() lists %q but Lookup returns %q, %v", name, m.Name, err)
		}
	}
}

// TestCapabilitiesFlags pins the one flag column of the method table: it
// must differ across the methods, or it carries no information.
func TestCapabilitiesFlags(t *testing.T) {
	budgeted := map[bool]int{}
	for _, m := range List() {
		budgeted[m.Budgeted]++
	}
	if budgeted[true] == 0 || budgeted[false] == 0 {
		t.Errorf("Budgeted is constant across the method table: %v", budgeted)
	}
}

// TestRaceOptimalWinnerIsLowestIndex pins the winner rule of the racer
// behind the portfolio method: the lowest-index member at K = M wins, so
// the result through Run is the same at any budget capacity and
// equals that member's run on its own.
func TestRaceOptimalWinnerIsLowestIndex(t *testing.T) {
	h := ring(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	var want partition.Key
	found := false
	for _, cfg := range core.DefaultPortfolio() {
		r, err := core.Run(context.Background(), h, dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Feasible && r.K == r.M {
			want, found = r.Partition.Key(partition.DefaultCost(), partition.NoBlock, r.M), true
			break
		}
	}
	if !found {
		t.Fatal("no member reaches K = M; the instance no longer exercises the winner rule")
	}
	for _, capacity := range []int{1, 2, 4} {
		budget := core.NewBudget(capacity)
		if !budget.TryAcquire() {
			t.Fatal("fresh budget refused a token")
		}
		res, err := Run(context.Background(), "portfolio", h, dev, Options{Budget: budget})
		budget.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Partition.Key(partition.DefaultCost(), partition.NoBlock, res.M); got != want {
			t.Errorf("capacity %d: solution key %v, want the lowest optimal member's %v", capacity, got, want)
		}
	}
}

// TestRacePropagatesParentCancellation checks that cancelling the caller's
// context aborts every member of the portfolio race and surfaces the
// cancellation through Run.
func TestRacePropagatesParentCancellation(t *testing.T) {
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	budget := core.NewBudget(4)
	if !budget.TryAcquire() {
		t.Fatal("fresh budget refused a token")
	}
	defer budget.Release()
	_, err := Run(ctx, "portfolio", h, dev, Options{Budget: budget})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestBoardGating pins the post-peel board feasibility gate: the same
// partition that is feasible on a crossbar (routing always succeeds) must
// be rejected on a chain board whose per-link wire budget the routed cut
// cannot meet, and on a board with fewer slots than blocks.
func TestBoardGating(t *testing.T) {
	h := ring(t, 4, 10, 4)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}

	xb := board.Board{Slots: 16, Topology: board.Crossbar}
	res, err := Run(context.Background(), "fpart", h, dev, Options{Board: &xb})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("crossbar-gated run infeasible: K=%d M=%d", res.K, res.M)
	}
	if res.Board == nil || !res.Board.Routable || res.Board.InterNets == 0 {
		t.Fatalf("crossbar report: %+v", res.Board)
	}

	// The identical device constraints on a chain with one wire per link:
	// the ring's cut nets overload the middle links, so the gate must
	// demote the crossbar-feasible assignment.
	ch := board.Board{Slots: 16, Topology: board.Chain, WiresPerLink: 1}
	res2, err := Run(context.Background(), "fpart", h, dev, Options{Board: &ch})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Feasible {
		t.Errorf("1-wire chain reported feasible (max link load %d)", res2.Board.MaxLinkLoad)
	}
	if res2.Board == nil || res2.Board.Routable || res2.Board.MaxLinkLoad < 2 {
		t.Errorf("chain report: %+v", res2.Board)
	}

	// Unplaceable: more blocks than slots. No report, not feasible.
	tiny := board.Board{Slots: 1, Topology: board.Chain}
	res3, err := Run(context.Background(), "fpart", h, dev, Options{Board: &tiny})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Feasible || res3.Board != nil {
		t.Errorf("unplaceable run: feasible=%v report=%+v", res3.Feasible, res3.Board)
	}
}

func TestUsageStringAndWriteList(t *testing.T) {
	if !strings.HasPrefix(UsageString(), strings.Join(realNames, ", ")) {
		t.Errorf("UsageString() = %q, want the method table in order", UsageString())
	}
	var sb strings.Builder
	WriteList(&sb)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) < len(realNames) {
		t.Fatalf("WriteList: %d lines", len(lines))
	}
	for i, want := range realNames {
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("WriteList line %d = %q, want method %q first", i, lines[i], want)
		}
		m := List()[i]
		flag := "-"
		if m.Budgeted {
			flag = "budgeted"
		}
		if f := strings.Fields(lines[i]); len(f) < 3 || f[1] != flag || !strings.HasSuffix(lines[i], m.Summary) {
			t.Errorf("WriteList line %d = %q, want the %q column then the summary", i, lines[i], flag)
		}
	}
}

// TestReadmeMethodBlock holds README.md to its claim that the fenced block
// under "### Partitioning methods" is `fpart -list-methods` verbatim.
func TestReadmeMethodBlock(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n### Partitioning methods\n")
	if !ok {
		t.Fatal(`README.md has no "### Partitioning methods" section`)
	}
	_, block, ok := strings.Cut(section, "\n```\n")
	if ok {
		block, _, ok = strings.Cut(block, "```\n")
	}
	if !ok {
		t.Fatal("README.md's method section has no fenced block")
	}
	var sb strings.Builder
	WriteList(&sb)
	if block != sb.String() {
		t.Errorf("README.md method block differs from WriteList:\n got %q\nwant %q", block, sb.String())
	}
}

func TestRunUnknownMethod(t *testing.T) {
	h := ring(t, 2, 4, 2)
	dev := device.Device{Name: "d", DatasheetCells: 13, Pins: 30, Fill: 1.0}
	_, err := Run(context.Background(), "simulated-annealing", h, dev, Options{})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, want := range append([]string{"simulated-annealing"}, realNames...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error should quote the method table (missing %q): %v", want, err)
		}
	}
}
