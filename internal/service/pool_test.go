package service

// Concurrency tests for the daemon's pooled engines: two simultaneous jobs
// drawing Sanchis engines from the shared pool, and a pooled daemon run
// against a direct one. Run under -race (the verify script's race leg
// includes this package).

import (
	"context"
	"testing"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/hypergraph"
)

func TestConcurrentSpeculativeJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownClean(t, s)

	// Two different built-in circuits so neither caching nor coalescing
	// collapses the pair: both run at once over pooled engines.
	a, err := s.Submit(Request{Circuit: "c3540", Device: "XC3042"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Request{Circuit: "s5378", Device: "XC3042"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a)
	waitTerminal(t, b)

	for _, j := range []*Job{a, b} {
		snap := s.Snapshot(j)
		if snap.State != StateDone {
			t.Fatalf("job %s: state %s (err %v)", snap.ID, snap.State, snap.Err)
		}
		if snap.Result == nil || !snap.Result.Feasible {
			t.Fatalf("job %s: no feasible result", snap.ID)
		}
		if err := snap.Result.Partition.Validate(); err != nil {
			t.Errorf("job %s: corrupt partition after pooled run: %v", snap.ID, err)
		}
	}
}

// TestServiceResultMatchesDirectRun: a pooled, budgeted daemon run must
// produce the same solution as a direct call, whatever engines the pool
// hands out and whatever the worker count.
func TestServiceResultMatchesDirectRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)
	j, err := s.Submit(Request{Circuit: "c3540", Device: "XC3042"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	snap := s.Snapshot(j)
	if snap.State != StateDone {
		t.Fatalf("state %s (err %v)", snap.State, snap.Err)
	}

	s2 := New(Config{Workers: 4})
	defer shutdownClean(t, s2)
	j2, err := s2.Submit(Request{Circuit: "c3540", Device: "XC3042"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j2)
	snap2 := s2.Snapshot(j2)
	if snap2.State != StateDone {
		t.Fatalf("state %s (err %v)", snap2.State, snap2.Err)
	}

	p1, p2 := snap.Result.Partition, snap2.Result.Partition
	h := p1.Hypergraph()
	direct, err := driver.RunOpts(context.Background(), "fpart", h, device.XC3042, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < h.NumNodes(); v++ {
		id := hypergraph.NodeID(v)
		if p1.Block(id) != p2.Block(id) {
			t.Fatalf("node %d assigned differently under 1 vs 4 workers", v)
		}
		if p1.Block(id) != direct.Partition.Block(id) {
			t.Fatalf("node %d assigned differently by the daemon and a direct run", v)
		}
	}
}
