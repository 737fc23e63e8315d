package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fpart/internal/obs"
)

// span is one timed interval of the traced run. Spans of one instance
// or job share Req; Parent is -1 for a root.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Layer  string    `json:"layer"`
	Req    string    `json:"req"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

// layers are the layers the traced run reports a self time for, in the
// order the README lists them.
var layers = []string{"netlist", "engine", "core", "sanchis", "multilevel", "board", "quality", "service", "store", "check", "runtime", "trace"}

// tracer keeps every span of a run in memory until the run ends. It is
// safe for concurrent use (the service workload has two clients).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// sinkTime is the time spent inside the event sink, the tracing's own
	// cost inside engine runs.
	sinkTime time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, layer, req string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Req: req, Start: start, End: end})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name, layer, req string, parent int, fn func()) {
	start := time.Now()
	fn()
	t.add(name, layer, req, parent, start, time.Now())
}

// eventRecorder is the obs.Sink a traced engine call runs with: it keeps
// each event with the wall time it arrived.
type eventRecorder struct {
	tr     *tracer
	mu     sync.Mutex
	events []obs.Event
	recv   []time.Time
}

func (e *eventRecorder) Event(ev obs.Event) {
	t0 := time.Now()
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.recv = append(e.recv, t0)
	e.mu.Unlock()
	e.tr.mu.Lock()
	e.tr.sinkTime += time.Since(t0)
	e.tr.mu.Unlock()
}

// eventLayer maps the event that closes an interval to the span it
// names: engines emit events when a step ends, so the interval from the
// previous event to this one is that step.
func eventLayer(t obs.EventType) (name, layer string) {
	switch t {
	case obs.BipartitionEnd:
		return "core.seed", "core"
	case obs.ImprovePass, obs.StackRestart, obs.SolutionAccepted, obs.SolutionRejected:
		return "sanchis.improve", "sanchis"
	case obs.Repair:
		return "core.repair", "core"
	case obs.Absorb:
		return "core.absorb", "core"
	case obs.CoarsenLevel:
		return "multilevel.coarsen", "multilevel"
	case obs.RefineLevel:
		return "multilevel.refine", "multilevel"
	}
	return "core.peel", "core"
}

// eventSpans turns a run's events into child spans of parent. Each
// emitting source's clock (Event.At counts from that run's start) is
// anchored at the arrival time of its first event, so nested runs such as
// mlfpart's coarse peel land on one timeline. base, when non-zero,
// anchors every source there instead (events replayed over HTTP arrive
// late, so the service workload anchors them at the job's start).
func (t *tracer) eventSpans(events []obs.Event, recv []time.Time, base time.Time, req string, parent int) {
	if t == nil || len(events) == 0 {
		return
	}
	anchor := map[string]time.Time{}
	at := make([]time.Time, len(events))
	for i, ev := range events {
		a, ok := anchor[ev.Source]
		if !ok {
			a = base
			if a.IsZero() {
				a = recv[i].Add(-ev.At)
			}
			anchor[ev.Source] = a
		}
		at[i] = a.Add(ev.At)
	}
	for i := 1; i < len(events); i++ {
		if !at[i].After(at[i-1]) {
			continue
		}
		name, layer := eventLayer(events[i].Type)
		t.add(name, layer, req, parent, at[i-1], at[i])
	}
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		var iv [][2]time.Time
		for _, c := range kids[s.ID] {
			cs, ce := t.spans[c].Start, t.spans[c].End
			if cs.Before(s.Start) {
				cs = s.Start
			}
			if ce.After(s.End) {
				ce = s.End
			}
			if ce.After(cs) {
				iv = append(iv, [2]time.Time{cs, ce})
			}
		}
		out[s.Layer] += s.End.Sub(s.Start) - covered(iv)
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x[0].After(cur[1]):
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// report sets the self-time metrics of every layer (per traced pass),
// trace.spans, and writes the spans out.
func (t *tracer) report(r *run, passes int, extra map[string]time.Duration) error {
	self := t.selfTimes()
	for l, d := range extra {
		self[l] += d
	}
	self["trace"] += t.sinkTime
	per := 1 / float64(max(passes, 1))
	for _, l := range layers {
		r.setLayer("self."+l+"_s", self[l].Seconds()*per, "s")
	}
	r.setLayer("trace.spans", float64(len(t.spans))*per, "count")
	return t.write(r)
}

// write stores the spans as JSON, offsets in nanoseconds from the run's
// start, under the output directory.
func (t *tracer) write(r *run) error {
	type out struct {
		span
		StartNS int64 `json:"start_ns"`
		EndNS   int64 `json:"end_ns"`
	}
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, s.Start.Sub(t.t0).Nanoseconds(), s.End.Sub(t.t0).Nanoseconds()}
	}
	raw, err := json.Marshal(map[string]any{"workload": r.workload, "seed": r.seed, "spans": rows})
	if err != nil {
		return err
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}
