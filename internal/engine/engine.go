// Package engine puts every partitioner of the repository behind one
// instrumented, cancellable dispatch over an ordered method table.
//
// The FPART paper's value is comparative — §5 pits guided iterative
// improvement against set-cover and multilevel baselines — so the pipeline
// treats "which partitioner" as data, not as a hardcoded switch. The
// methods table lists every method under a stable name ("fpart",
// "portfolio", "kwayx", "flow", "multilevel", "mlfpart") in documentation
// order: the paper's algorithm first, then the baselines. The driver, the
// fpartd service and the CLIs resolve methods through Lookup and derive
// their method lists and usage strings from the same table.
//
// Every method honours the same contract:
//
//   - Run returns promptly with ctx.Err() when ctx is cancelled, including
//     before the first move (engines poll in their pass loops);
//   - events flow to Options.Sink and effort counters land in
//     Result.Stats (nil sinks are free — the obs.Emitter is nil-safe);
//   - Result.Elapsed is measured by the engine itself, not by the caller's
//     stopwatch, so queueing and token waits never pollute it;
//   - Options.Board is honoured: Run places the result on the board and
//     routes its cut nets after the engine returns.
package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"fpart/internal/board"
	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/flow"
	"fpart/internal/hypergraph"
	"fpart/internal/mlfpart"
	"fpart/internal/multilevel"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// Options tunes one Run dispatch beyond the method choice.
type Options struct {
	// Sink receives structured events from the run.
	Sink obs.Sink
	// Label tags the run's events (obs.Event.Source); empty means the
	// engine's default labelling.
	Label string
	// Deprecated: ignored. SpecWidth was the width of the removed
	// speculative peel; no engine reads it.
	SpecWidth int
	// Budget, when non-nil, is the shared concurrency budget budgeted
	// methods draw extra tokens from. The caller is expected to hold one
	// token for the run itself (driver.RunOpts acquires it).
	Budget *core.Budget
	// Board, when non-nil, turns the dispatch into a board-aware run: after
	// the engine finishes, the partition is placed on the board and the cut
	// nets are routed (board.Route). An unplaceable (more blocks than
	// slots) or unroutable (a link over WiresPerLink) outcome demotes
	// Result.Feasible; the routing report lands in Result.Board.
	Board *board.Board
}

// Result is the outcome of one Run dispatch.
type Result struct {
	// Partition holds the final assignment.
	Partition *partition.Partition
	// K is the number of non-empty blocks; M the device lower bound.
	K, M int
	// Feasible reports whether every block meets the device constraints.
	Feasible bool
	// Stats carries the effort counters; Run always sets it.
	Stats *obs.Stats
	// Elapsed is the wall time of the run, measured by the engine itself.
	Elapsed time.Duration
	// Board is the board routing report of a board-aware run (Options.Board
	// set); nil otherwise, and nil when the partition could not even be
	// placed (Feasible is false in that case).
	Board *board.Report
}

// Method is one row of the method table.
type Method struct {
	// Name is the dispatch key ("fpart", "kwayx", ...).
	Name string
	// Budgeted methods draw extra concurrency tokens from Options.Budget
	// (portfolio members) beyond the one the caller holds.
	Budgeted bool
	// Summary is a one-line description for method listings.
	Summary string
	run     func(context.Context, *hypergraph.Hypergraph, device.Device, Options) (*core.Result, error)
}

// methods is the method table in documentation order.
var methods = []Method{
	{
		Name:    "fpart",
		Summary: "guided iterative improvement of Krupnova & Saucier (the paper's algorithm)",
		run: func(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*core.Result, error) {
			cfg := core.Default()
			cfg.Sink = opts.Sink
			cfg.Label = opts.Label
			return core.Run(ctx, h, dev, cfg)
		},
	},
	{
		Name:     "portfolio",
		Budgeted: true,
		Summary:  "races the core.DefaultPortfolio configuration mix, a K=M win cancels the later members",
		run: func(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*core.Result, error) {
			cfgs := core.DefaultPortfolio()
			for i := range cfgs {
				cfgs[i].Sink = opts.Sink
				cfgs[i].Budget = opts.Budget
			}
			return core.Portfolio(ctx, h, dev, cfgs)
		},
	},
	{
		Name:    "kwayx",
		Summary: "k-way.x recursive bipartitioning baseline (Kuznar-Brglez-Kozminski)",
		run: func(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*core.Result, error) {
			cfg := core.KWayX()
			cfg.Sink = opts.Sink
			cfg.Label = opts.Label
			return core.Run(ctx, h, dev, cfg)
		},
	},
	{
		Name:    "flow",
		Summary: "FBB-MW flow-based peeling baseline (Liu-Wong max-flow min-cut)",
		run: func(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*core.Result, error) {
			return flow.PartitionCtx(ctx, h, dev, flow.Config{Sink: opts.Sink, Label: opts.Label})
		},
	},
	{
		Name:    "multilevel",
		Summary: "multilevel coarsen/split/refine baseline (hMETIS-style V-cycles)",
		run: func(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*core.Result, error) {
			return multilevel.PartitionCtx(ctx, h, dev, multilevel.Config{Sink: opts.Sink, Label: opts.Label})
		},
	},
	{
		Name:    "mlfpart",
		Summary: "multilevel-accelerated FPART (coarsen, peel coarsest, refine down)",
		run: func(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*core.Result, error) {
			r, err := mlfpart.PartitionCtx(ctx, h, dev, mlfpart.Config{Sink: opts.Sink, Label: opts.Label})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		},
	},
}

// Lookup resolves a method by name, or returns the unknown-method error
// that quotes every valid name.
func Lookup(name string) (Method, error) {
	for _, m := range methods {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("unknown method %q (valid: %v)", name, Names())
}

// List returns the method table in documentation order.
func List() []Method { return append([]Method(nil), methods...) }

// Names lists the method names in documentation order.
func Names() []string {
	out := make([]string, len(methods))
	for i, m := range methods {
		out[i] = m.Name
	}
	return out
}

// WriteList renders the method table as aligned text — one method per
// line with its budgeted flag ("-" when unset) and summary. `fpart
// -list-methods` prints exactly this, and the README method block mirrors
// it.
func WriteList(w io.Writer) {
	wide := 0
	for _, m := range methods {
		wide = max(wide, len(m.Name))
	}
	for _, m := range methods {
		budgeted := "-"
		if m.Budgeted {
			budgeted = "budgeted"
		}
		fmt.Fprintf(w, "%-*s  %-8s  %s\n", wide, m.Name, budgeted, m.Summary)
	}
}

// UsageString is the one-line method enumeration for flag help text
// ("fpart, portfolio, kwayx, ...").
func UsageString() string {
	return strings.Join(Names(), ", ")
}

// Run dispatches the named method, or returns Lookup's error when the
// name is unknown. It is the one place a core.Result becomes a Result and
// the board gate applies. The caller is responsible for Budget token
// acquisition (see driver.RunOpts).
func Run(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	m, err := Lookup(method)
	if err != nil {
		return nil, err
	}
	r, err := m.run(ctx, h, dev, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Partition: r.Partition, K: r.K, M: r.M, Feasible: r.Feasible, Stats: &r.Stats, Elapsed: r.Elapsed}
	gateBoard(res, opts.Board)
	return res, nil
}

// gateBoard applies the post-peel board feasibility gate: place the result
// on b and route the cut nets, demoting Feasible when the partition does
// not fit the board's slots or its link capacities. A nil board is a no-op
// (the plain flat-engine path).
func gateBoard(res *Result, b *board.Board) {
	if b == nil || res.Partition == nil {
		return
	}
	_, rep, err := board.Route(res.Partition, *b)
	if err != nil {
		res.Feasible = false
		return
	}
	res.Board = &rep
	if !rep.Routable {
		res.Feasible = false
	}
}
