// Package engine puts every partitioner of the repository behind one
// instrumented, cancellable interface and a self-registration registry.
//
// The FPART paper's value is comparative — §5 pits guided iterative
// improvement against set-cover and multilevel baselines — so the pipeline
// must treat "which partitioner" as data, not as a hardcoded switch. Each
// algorithm package's adapter registers itself here under a stable name
// ("fpart", "portfolio", "kwayx", "flow", "multilevel"); the driver, the
// fpartd service, and the CLIs all resolve methods through Lookup and
// derive their method lists, usage strings, and capability matrices from
// the registry.
//
// Every registered engine honours the same contract:
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
	"sort"
	"strings"
	"sync"
	"time"

	"fpart/internal/board"
	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// Capabilities describes how a registered engine differs from the others;
// the service and CLI surface them so callers can choose before
// dispatching. What every engine shares is the package-level contract.
type Capabilities struct {
	// Budgeted engines draw extra concurrency tokens from Options.Budget
	// (portfolio members) beyond the one the caller holds.
	Budgeted bool
	// Summary is a one-line description for method listings.
	Summary string
}

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
	// engines draw extra tokens from. The caller is expected to hold one
	// token for the run itself (driver.RunOpts acquires it).
	Budget *core.Budget
	// Board, when non-nil, turns the dispatch into a board-aware run: after
	// the engine finishes, the partition is placed on the board and the cut
	// nets are routed (board.Route). An unplaceable (more blocks than
	// slots) or unroutable (a link over WiresPerLink) outcome demotes
	// Result.Feasible; the routing report lands in Result.Board.
	Board *board.Board
}

// Result is the outcome of one engine dispatch.
type Result struct {
	// Partition holds the final assignment.
	Partition *partition.Partition
	// K is the number of non-empty blocks; M the device lower bound.
	K, M int
	// Feasible reports whether every block meets the device constraints.
	Feasible bool
	// Stats carries the effort counters; non-nil for every instrumented
	// engine (all registered engines are).
	Stats *obs.Stats
	// Elapsed is the wall time of the run, measured by the engine itself.
	Elapsed time.Duration
	// Board is the board routing report of a board-aware run (Options.Board
	// set); nil otherwise, and nil when the partition could not even be
	// placed (Feasible is false in that case).
	Board *board.Report
}

// Engine is one partitioning method behind the common contract described
// in the package comment.
type Engine interface {
	// Name is the registry key ("fpart", "kwayx", ...).
	Name() string
	// Caps reports how the engine differs from the others.
	Caps() Capabilities
	// Run partitions circuit h targeting device dev under opts.
	Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error)
}

// registry is the global engine table. Engines register at init time; the
// rank fixes the documentation order regardless of init sequencing, so
// Names() is deterministic.
var (
	regMu    sync.RWMutex
	registry = map[string]regEntry{}
)

type regEntry struct {
	eng  Engine
	rank int
}

// Register adds e to the registry under e.Name(). rank orders method
// listings (lower first; the paper's algorithm is 0, baselines follow).
// Registering a duplicate name panics: it is a programmer error that
// would make dispatch ambiguous.
func Register(rank int, e Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	name := e.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate Register(%q)", name))
	}
	registry[name] = regEntry{eng: e, rank: rank}
}

// Lookup resolves a registered engine by name.
func Lookup(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	ent, ok := registry[name]
	return ent.eng, ok
}

// Names lists the registered engine names in rank order (documentation
// order: the paper's algorithm first, then the baselines).
func Names() []string {
	infos := List()
	out := make([]string, len(infos))
	for i, inf := range infos {
		out[i] = inf.Name
	}
	return out
}

// Info pairs a registered engine's name with its capabilities.
type Info struct {
	Name string
	Caps Capabilities
}

// List returns every registered engine's name and capabilities in rank
// order.
func List() []Info {
	regMu.RLock()
	type ranked struct {
		inf  Info
		rank int
	}
	ents := make([]ranked, 0, len(registry))
	for name, ent := range registry {
		ents = append(ents, ranked{Info{Name: name, Caps: ent.eng.Caps()}, ent.rank})
	}
	regMu.RUnlock()
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].rank != ents[j].rank {
			return ents[i].rank < ents[j].rank
		}
		return ents[i].inf.Name < ents[j].inf.Name
	})
	out := make([]Info, len(ents))
	for i, e := range ents {
		out[i] = e.inf
	}
	return out
}

// WriteList renders the registry as an aligned text table — one engine per
// line with its budgeted flag ("-" when unset) and summary. `fpart -list-methods` prints
// exactly this, and the README method table mirrors it.
func WriteList(w io.Writer) {
	infos := List()
	wide := 0
	for _, inf := range infos {
		if len(inf.Name) > wide {
			wide = len(inf.Name)
		}
	}
	for _, inf := range infos {
		budgeted := "-"
		if inf.Caps.Budgeted {
			budgeted = "budgeted"
		}
		fmt.Fprintf(w, "%-*s  %-8s  %s\n", wide, inf.Name, budgeted, inf.Caps.Summary)
	}
}

// UsageString is the one-line method enumeration for flag help text,
// generated from the registry ("fpart, portfolio, kwayx, ...").
func UsageString() string {
	return strings.Join(Names(), ", ")
}

// Run dispatches the named engine, or an error quoting the registry when
// the name is unknown. The caller is responsible for Budget token
// acquisition (see driver.RunOpts).
func Run(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	eng, ok := Lookup(method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q (valid: %v)", method, Names())
	}
	res, err := eng.Run(ctx, h, dev, opts)
	if err != nil {
		return nil, err
	}
	gateBoard(res, opts.Board)
	return res, nil
}

// gateBoard applies the post-peel board feasibility gate: place the result
// on b and route the cut nets, demoting Feasible when the partition does
// not fit the board's slots or its link capacities. A nil board is a no-op
// (the plain flat-engine path).
func gateBoard(res *Result, b *board.Board) {
	if res == nil || b == nil || res.Partition == nil {
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
