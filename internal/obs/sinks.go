package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TextSink renders events as one human-readable line each, matching the
// Figure 1 trace format the repository's schedule tests assert against.
type TextSink struct {
	w io.Writer
}

// NewTextSink writes one line per event to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Event renders e.
func (s *TextSink) Event(e Event) {
	switch e.Type {
	case RunStart:
		fmt.Fprintf(s.w, "run start: M=%d\n", e.M)
	case RunEnd:
		fmt.Fprintf(s.w, "run end: K=%d feasible=%v\n", e.K, e.Feasible)
	case BipartitionStart:
		fmt.Fprintf(s.w, "iteration %d: bipartition start\n", e.Iteration)
	case BipartitionEnd:
		fmt.Fprintf(s.w, "iteration %d: bipartition R -> {R, P%d} (size=%d T=%d)\n",
			e.Iteration, e.Block, e.Size, e.Terminals)
	case ImprovePass:
		fmt.Fprintf(s.w, "improve %s blocks=%v improved=%v\n", e.Label, e.Blocks, e.Improved)
	case StackRestart:
		fmt.Fprintf(s.w, "stack restart %s prefix=%d\n", e.Label, e.Moves)
	case SolutionAccepted:
		fmt.Fprintf(s.w, "restart solution accepted\n")
	case SolutionRejected:
		fmt.Fprintf(s.w, "restart solution rejected\n")
	case Repair:
		fmt.Fprintf(s.w, "repair block=%d shed=%d\n", e.Block, e.Moves)
	case Absorb:
		fmt.Fprintf(s.w, "absorbed block %d\n", e.Block)
	case Cancelled:
		fmt.Fprintf(s.w, "run cancelled\n")
	default:
		fmt.Fprintf(s.w, "%s %+v\n", e.Type, e)
	}
}

// JSONSink renders events as JSON, one object per line, suitable for
// machine consumption (`cmd/fpart -trace-format=json`).
type JSONSink struct {
	enc *json.Encoder
}

// NewJSONSink writes one JSON object per event to w.
func NewJSONSink(w io.Writer) *JSONSink { return &JSONSink{enc: json.NewEncoder(w)} }

// Event encodes e.
func (s *JSONSink) Event(e Event) { _ = s.enc.Encode(e) }

// Collector retains the event stream in order. It is safe for concurrent
// use, so one Collector can observe every member of a core.Portfolio.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Event appends e.
func (c *Collector) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the stream in arrival order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Count returns how many events of type t arrived.
func (c *Collector) Count(t EventType) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// Len returns the total number of events collected.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Reset discards the collected events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// lockedSink serializes access to an underlying sink.
type lockedSink struct {
	mu *sync.Mutex
	s  Sink
}

func (l *lockedSink) Event(e Event) {
	l.mu.Lock()
	l.s.Event(e)
	l.mu.Unlock()
}

// Locked wraps s with the caller's mutex. Use it when several wrappers must
// share one lock — core.Portfolio wraps every member's sink with a single
// mutex so that distinct configurations pointing at the same underlying
// sink stay serialized. Returns nil for a nil sink.
func Locked(mu *sync.Mutex, s Sink) Sink {
	if s == nil {
		return nil
	}
	return &lockedSink{mu: mu, s: s}
}
