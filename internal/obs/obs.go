// Package obs is the structured observability layer of the FPART pipeline.
//
// The partitioner's interesting behaviour — the improvement schedule of
// Algorithm 1 (§3.1), the dual solution stacks (§3.6), the feasible move
// regions (§3.5) — is invisible from the final Result alone. This package
// gives every layer of the pipeline a common vocabulary for reporting what
// it did:
//
//   - Event / Sink: a typed event stream. core.Run emits one Event per
//     algorithm step (bipartition start/end, improvement pass per schedule
//     step, repair, absorption, run start/end); the sanchis engine emits
//     stack restarts and restart-solution accept/reject decisions. Sinks
//     render the stream as text (TextSink, the Figure 1 trace), JSON lines
//     (JSONSink), or retain it for inspection (Collector).
//   - Stats: aggregated effort counters — passes run, moves evaluated /
//     applied / gated by the move windows, gain-bucket operations, stack
//     restarts, per-phase wall time, peak block count. core.Run fills one
//     Stats per run; Merge folds several together.
//   - Emitter: the nil-safe handle the pipeline threads through its layers.
//     A nil *Emitter is fully inert, so the instrumented hot paths cost a
//     single pointer test when observability is off.
//
// Sinks are invoked synchronously from the partitioning goroutine. A sink
// shared between concurrent runs (core.Portfolio members) must be safe for
// concurrent use: Collector is; wrap anything else with Locked. See
// ARCHITECTURE.md for where each event fires.
package obs

import (
	"fmt"
	"time"
)

// EventType enumerates the algorithm events emitted by the pipeline.
type EventType uint8

const (
	// RunStart opens a core.Run event stream (carries M).
	RunStart EventType = iota
	// RunEnd closes the stream (carries K and Feasible).
	RunEnd
	// BipartitionStart marks the beginning of one Algorithm 1 iteration,
	// before the constructive seeding of §3.2.
	BipartitionStart
	// BipartitionEnd reports the seeded block: {R_k, P_k} = Bipartition(R)
	// (carries Iteration, Block, Size, Terminals).
	BipartitionEnd
	// ImprovePass reports one schedule step of §3.1 (carries Label — e.g.
	// "pair(R,Pk)", "all" — Blocks, Passes, Moves, Improved).
	ImprovePass
	// StackRestart reports a pass series restarted from a stacked solution
	// of §3.6 (Label is "semi" or "infeasible", Moves the journal prefix).
	StackRestart
	// SolutionAccepted reports a restart series that beat the incumbent
	// solution key; SolutionRejected one that did not.
	SolutionAccepted
	// SolutionRejected is the complement of SolutionAccepted.
	SolutionRejected
	// Repair reports a non-remainder block shedding cells back to the
	// remainder to restore semi-feasibility (carries Block, Moves).
	Repair
	// Absorb reports the endgame absorption dissolving a block (carries
	// Block).
	Absorb
	// Cancelled reports a run aborted by context cancellation or deadline.
	Cancelled
	// CoarsenLevel reports one heavy-edge coarsening level of a multilevel
	// V-cycle (carries Iteration — the level index — and Size — the coarse
	// node count).
	CoarsenLevel
	// RefineLevel reports one uncoarsening/refinement level of a multilevel
	// V-cycle (carries Iteration — the level index — Size — the fine node
	// count — Moves, and Improved).
	RefineLevel

	numEventTypes
)

var eventNames = [numEventTypes]string{
	"run-start", "run-end", "bipartition-start", "bipartition-end",
	"improve-pass", "stack-restart", "solution-accepted",
	"solution-rejected", "repair", "absorb", "cancelled",
	"coarsen-level", "refine-level",
}

// String names the event type as used in the text and JSON renderings.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// MarshalText renders the type name, so JSONSink output is self-describing.
func (t EventType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses a type name, so consumers of the JSON event stream
// (the service's NDJSON endpoint, trace post-processors) can decode events
// back into obs.Event.
func (t *EventType) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range eventNames {
		if n == s {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("unknown event type %q", s)
}

// Event is one observation from the pipeline. Only the fields relevant to
// the Type are set; the rest stay zero (and are elided from JSON output).
type Event struct {
	Type EventType `json:"type"`
	// At is the offset from the emitting run's start.
	At time.Duration `json:"at_ns"`
	// Source tags the emitting run — Portfolio members are tagged
	// "portfolio[i]" unless the configuration carries its own Label.
	Source string `json:"source,omitempty"`
	// Iteration is the Algorithm 1 iteration (1-based; 0 outside the loop).
	Iteration int `json:"iteration,omitempty"`
	// Label is the schedule-step label (ImprovePass) or stack name
	// (StackRestart).
	Label string `json:"label,omitempty"`
	// Blocks lists the active blocks of an improvement pass.
	Blocks []int `json:"blocks,omitempty"`
	// Block is the subject block (BipartitionEnd, Repair, Absorb).
	Block int `json:"block,omitempty"`
	// Size and Terminals describe the subject block (BipartitionEnd).
	Size      int `json:"size,omitempty"`
	Terminals int `json:"terminals,omitempty"`
	// K and M carry the block count and lower bound (RunStart, RunEnd).
	K int `json:"k,omitempty"`
	M int `json:"m,omitempty"`
	// Passes and Moves quantify an improvement call or restart prefix.
	Passes int `json:"passes,omitempty"`
	Moves  int `json:"moves,omitempty"`
	// Improved and Feasible report outcomes (ImprovePass, RunEnd).
	Improved bool `json:"improved,omitempty"`
	Feasible bool `json:"feasible,omitempty"`
}

// Sink receives the event stream. Implementations are invoked synchronously
// from the partitioning goroutine; they must not call back into the
// partitioner.
type Sink interface {
	Event(Event)
}

// Emitter stamps events with a run-relative timestamp and source tag before
// forwarding them to a Sink. The nil *Emitter is valid and inert — every
// instrumented layer holds an *Emitter and pays one nil test when
// observability is off.
type Emitter struct {
	sink   Sink
	source string
	start  time.Time
}

// NewEmitter wraps sink for one run. A nil sink yields a nil (inert)
// emitter.
func NewEmitter(sink Sink, source string) *Emitter {
	if sink == nil {
		return nil
	}
	return &Emitter{sink: sink, source: source, start: time.Now()}
}

// Enabled reports whether events will reach a sink. Callers building
// expensive event payloads (slices) should guard on it.
func (em *Emitter) Enabled() bool { return em != nil }

// Emit stamps and forwards e. Safe on a nil receiver.
func (em *Emitter) Emit(e Event) {
	if em == nil {
		return
	}
	e.At = time.Since(em.start)
	if e.Source == "" {
		e.Source = em.source
	}
	em.sink.Event(e)
}
