package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilEmitterIsInert(t *testing.T) {
	var em *Emitter
	if em.Enabled() {
		t.Error("nil emitter reports enabled")
	}
	// Must not panic.
	em.Emit(Event{Type: RunStart, M: 3})

	if got := NewEmitter(nil, "x"); got != nil {
		t.Errorf("NewEmitter(nil) = %v, want nil", got)
	}
}

func TestEmitterStampsEvents(t *testing.T) {
	var c Collector
	em := NewEmitter(&c, "run1")
	em.Emit(Event{Type: RunStart, M: 2})
	em.Emit(Event{Type: RunEnd, K: 2, Feasible: true, Source: "explicit"})
	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("collected %d events, want 2", len(evs))
	}
	if evs[0].Source != "run1" {
		t.Errorf("source = %q, want emitter tag", evs[0].Source)
	}
	if evs[1].Source != "explicit" {
		t.Errorf("explicit source overwritten: %q", evs[1].Source)
	}
	if evs[1].At < evs[0].At {
		t.Errorf("timestamps not monotone: %v then %v", evs[0].At, evs[1].At)
	}
}

func TestCollectorPreservesOrderAndCounts(t *testing.T) {
	var c Collector
	seq := []EventType{RunStart, BipartitionStart, BipartitionEnd,
		ImprovePass, ImprovePass, Repair, Absorb, RunEnd}
	for i, ty := range seq {
		c.Event(Event{Type: ty, Iteration: i})
	}
	evs := c.Events()
	if len(evs) != len(seq) {
		t.Fatalf("len = %d, want %d", len(evs), len(seq))
	}
	for i, e := range evs {
		if e.Type != seq[i] || e.Iteration != i {
			t.Errorf("event %d = (%v,%d), want (%v,%d)", i, e.Type, e.Iteration, seq[i], i)
		}
	}
	if c.Count(ImprovePass) != 2 || c.Count(Cancelled) != 0 {
		t.Errorf("counts wrong: improve=%d cancelled=%d", c.Count(ImprovePass), c.Count(Cancelled))
	}
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("reset left %d events", c.Len())
	}
}

func TestTextSinkFormats(t *testing.T) {
	var buf bytes.Buffer
	s := NewTextSink(&buf)
	s.Event(Event{Type: BipartitionEnd, Iteration: 3, Block: 2, Size: 10, Terminals: 5})
	s.Event(Event{Type: ImprovePass, Label: "pair(R,Pk)", Blocks: []int{0, 2}, Improved: true})
	s.Event(Event{Type: Repair, Block: 1, Moves: 4})
	s.Event(Event{Type: Absorb, Block: 7})
	s.Event(Event{Type: StackRestart, Label: "semi", Moves: 12})
	out := buf.String()
	for _, want := range []string{
		"iteration 3: bipartition R -> {R, P2} (size=10 T=5)",
		"improve pair(R,Pk) blocks=[0 2] improved=true",
		"repair block=1 shed=4",
		"absorbed block 7",
		"stack restart semi prefix=12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q\ngot:\n%s", want, out)
		}
	}
}

func TestJSONSinkEmitsOneObjectPerLine(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	s.Event(Event{Type: ImprovePass, Label: "all", Blocks: []int{0, 1}, Passes: 3})
	s.Event(Event{Type: RunEnd, K: 4, Feasible: true})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first["type"] != "improve-pass" || first["label"] != "all" {
		t.Errorf("decoded %v, want improve-pass/all", first)
	}
	if _, ok := first["block"]; ok {
		t.Error("zero field not elided from JSON")
	}
}

func TestLockedUnderConcurrency(t *testing.T) {
	var c Collector
	var mu sync.Mutex
	sinks := []Sink{Locked(&mu, &c), &c}
	const perSink = 200
	var wg sync.WaitGroup
	for _, s := range sinks {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(s Sink) {
				defer wg.Done()
				for i := 0; i < perSink; i++ {
					s.Event(Event{Type: ImprovePass, Moves: i})
				}
			}(s)
		}
	}
	wg.Wait()
	if got, want := c.Len(), len(sinks)*4*perSink; got != want {
		t.Errorf("collected %d events, want %d", got, want)
	}
	if Locked(&mu, nil) != nil {
		t.Error("a nil sink wrapper must stay nil")
	}
}

func TestStatsMergeAndDerived(t *testing.T) {
	a := Stats{Iterations: 2, Passes: 4, MovesApplied: 40, MovesEvaluated: 100,
		MovesGated: 25, BucketOps: 500, Restarts: 1, PeakBlocks: 3}
	a.PhaseTime[PhaseSeed] = time.Millisecond
	b := Stats{Iterations: 1, Passes: 6, MovesApplied: 20, MovesEvaluated: 100,
		MovesGated: 0, BucketOps: 100, Restarts: 2, PeakBlocks: 5, Absorbed: 1}
	b.PhaseTime[PhaseSeed] = time.Millisecond
	a.Merge(b)
	if a.Iterations != 3 || a.Passes != 10 || a.MovesApplied != 60 ||
		a.BucketOps != 600 || a.Restarts != 3 || a.Absorbed != 1 {
		t.Errorf("merge wrong: %+v", a)
	}
	if a.PeakBlocks != 5 {
		t.Errorf("PeakBlocks = %d, want max 5", a.PeakBlocks)
	}
	if a.PhaseTime[PhaseSeed] != 2*time.Millisecond {
		t.Errorf("phase time = %v, want 2ms", a.PhaseTime[PhaseSeed])
	}
	if got := a.MovesPerPass(); got != 6 {
		t.Errorf("MovesPerPass = %v, want 6", got)
	}
	if got := a.GateRate(); got != 0.125 {
		t.Errorf("GateRate = %v, want 0.125", got)
	}
	var zero Stats
	if zero.MovesPerPass() != 0 || zero.GateRate() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestStatsReportMentionsEveryPhase(t *testing.T) {
	var buf bytes.Buffer
	s := Stats{Iterations: 1, Passes: 2, MovesApplied: 10}
	s.Report(&buf)
	out := buf.String()
	for p := Phase(0); p < NumPhases; p++ {
		if !strings.Contains(out, p.String()) {
			t.Errorf("report missing phase %q:\n%s", p, out)
		}
	}
	if !strings.Contains(out, "moves/pass") {
		t.Errorf("report missing moves/pass:\n%s", out)
	}
}

func TestEventTypeStrings(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		if strings.HasPrefix(ty.String(), "EventType(") {
			t.Errorf("event type %d unnamed", ty)
		}
	}
	txt, err := ImprovePass.MarshalText()
	if err != nil || string(txt) != "improve-pass" {
		t.Errorf("MarshalText = %q, %v", txt, err)
	}
}
