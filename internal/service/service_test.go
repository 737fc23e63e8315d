package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/obs"
)

const tinyPHG = `phg
node a 2
node b 2
node c 2
node d 2
pad p
pad q
net n1 0 1 4
net n2 1 2
net n3 2 3 5
net n4 0 3
`

// uniquePHG returns a structurally distinct tiny netlist per tag in
// [0, 64), so tests can defeat the cache and in-flight coalescing at will.
// The fingerprint ignores names, so the tag is spelled in node sizes.
func uniquePHG(tag int) string {
	return fmt.Sprintf("phg\nnode a %d\nnode b %d\nnode c 1\npad p\nnet n1 0 1 3\nnet n2 1 2\nnet n3 0 2\n", 1+tag%8, 1+tag/8%8)
}

func phgRequest(body string) Request {
	return Request{Format: "phg", Netlist: body, Device: "XC3020"}
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete")
	}
}

func shutdownClean(t *testing.T, s *Service) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)

	bad := []Request{
		{},                 // no device
		{Device: "XC3020"}, // neither circuit nor netlist
		{Device: "XC3020", Circuit: "s9234", Netlist: "phg\n", Format: "phg"}, // both
		{Device: "nope", Circuit: "s9234"},
		{Device: "XC3020", Circuit: "unknown-circuit"},
		{Device: "XC3020", Circuit: "s9234", Method: "annealing"},
		{Device: "XC3020", Circuit: "s9234", Fill: 1.5},
		{Device: "XC3020", Netlist: "not a netlist", Format: "phg"},
	}
	for i, req := range bad {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("request %d should have been rejected", i)
		}
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownClean(t, s)

	job, err := s.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)

	snap := s.Snapshot(job)
	if snap.State != StateDone || snap.Err != nil {
		t.Fatalf("job ended %s (%v)", snap.State, snap.Err)
	}
	if snap.Result == nil || snap.Report == nil || snap.Result.K < 1 {
		t.Fatalf("missing result payload: %+v", snap)
	}
	if snap.Result.Stats == nil {
		t.Fatal("fpart run should carry effort counters")
	}
	// The quality report matches the partitioning outcome.
	if snap.Report.Feasible != snap.Result.Feasible {
		t.Fatal("report/result feasibility disagree")
	}
	// The event stream is complete and terminated.
	if !job.Events().Closed() {
		t.Fatal("broadcast must be closed after completion")
	}
	evs := job.Events().Events()
	if len(evs) == 0 || evs[0].Type != obs.RunStart || evs[len(evs)-1].Type != obs.RunEnd {
		t.Fatalf("unexpected event envelope: %d events", len(evs))
	}
}

func TestCacheHitOnResubmit(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)

	first, err := s.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)

	second, err := s.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, second) // already closed: cache hits are born terminal

	snap := s.Snapshot(second)
	if !snap.Cached || snap.State != StateDone {
		t.Fatalf("resubmit should hit the cache: %+v", snap)
	}
	if snap.Key != first.Key() {
		t.Fatal("identical content must produce identical keys")
	}
	if got := s.m.computations.Load(); got != 1 {
		t.Fatalf("want 1 computation, got %d", got)
	}
	// The cached job replays the original event stream.
	if len(second.Events().Events()) != len(first.Events().Events()) {
		t.Fatal("cached job should replay the leader's events")
	}
	// Different device => different key => new computation.
	third, err := s.Submit(Request{Format: "phg", Netlist: tinyPHG, Device: "XC3042"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, third)
	if s.Snapshot(third).Cached {
		t.Fatal("different device must not share cache entries")
	}
}

// TestConcurrentSubmissionsCoalesce is the acceptance criterion: N
// concurrent submissions of the same circuit complete with exactly one
// cache-miss computation.
func TestConcurrentSubmissionsCoalesce(t *testing.T) {
	const n = 12
	s := New(Config{Workers: 2, QueueDepth: n})
	defer shutdownClean(t, s)

	release := make(chan struct{})
	started := make(chan struct{}, n)
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return driver.RunOpts(ctx, method, h, dev, opts)
	}

	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(phgRequest(tinyPHG))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			mu.Lock()
			jobs[i] = j
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	<-started // the single leader is running
	close(release)

	for _, j := range jobs {
		if j == nil {
			t.Fatal("missing job")
		}
		waitTerminal(t, j)
		if snap := s.Snapshot(j); snap.State != StateDone {
			t.Fatalf("job %s ended %s (%v)", snap.ID, snap.State, snap.Err)
		}
	}
	if got := s.m.computations.Load(); got != 1 {
		t.Fatalf("want exactly 1 computation for %d identical submissions, got %d", n, got)
	}
	if hits := s.m.coalesced.Load() + s.m.cacheHits.Load(); hits != n-1 {
		t.Fatalf("want %d coalesced/cached riders, got %d", n-1, hits)
	}
}

// TestQueueBackpressure is the acceptance criterion: overflow of the
// bounded queue rejects with ErrQueueFull (HTTP 429).
func TestQueueBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdownClean(t, s)

	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return driver.RunOpts(context.Background(), method, h, dev, opts)
	}
	defer close(release)

	// Occupy the worker...
	running, err := s.Submit(phgRequest(uniquePHG(1)))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// ...fill the single queue slot...
	queued, err := s.Submit(phgRequest(uniquePHG(2)))
	if err != nil {
		t.Fatal(err)
	}
	// ...and overflow it.
	if _, err := s.Submit(phgRequest(uniquePHG(3))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if s.m.rejected.Load() != 1 {
		t.Fatal("rejection must be counted")
	}
	if s.QueueDepth() != 1 {
		t.Fatalf("queue depth: want 1, got %d", s.QueueDepth())
	}
	_ = running
	_ = queued
}

// TestShutdownDrains is the acceptance criterion: in-flight jobs drain on
// a graceful shutdown and admission stops.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(phgRequest(uniquePHG(i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	for _, j := range jobs {
		snap := s.Snapshot(j)
		if snap.State != StateDone {
			t.Fatalf("queued job %s should have drained to done, got %s (%v)", snap.ID, snap.State, snap.Err)
		}
	}
	if _, err := s.Submit(phgRequest(tinyPHG)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: want ErrShuttingDown, got %v", err)
	}
	// A second shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownCancelsInFlight is the acceptance criterion's other half:
// when the drain deadline expires, running jobs are cancelled cleanly via
// their contexts.
func TestShutdownCancelsInFlight(t *testing.T) {
	s := New(Config{Workers: 1})

	started := make(chan struct{})
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		close(started)
		<-ctx.Done() // a run that never finishes on its own
		return nil, ctx.Err()
	}
	job, err := s.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown should report the deadline, got %v", err)
	}
	waitTerminal(t, job)
	snap := s.Snapshot(job)
	if snap.State != StateCanceled {
		t.Fatalf("in-flight job should end canceled, got %s (%v)", snap.State, snap.Err)
	}
	if !job.Events().Closed() {
		t.Fatal("event stream must be terminated on cancellation")
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})

	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return driver.RunOpts(context.Background(), method, h, dev, opts)
	}

	running, err := s.Submit(phgRequest(uniquePHG(10)))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(phgRequest(uniquePHG(11)))
	if err != nil {
		t.Fatal(err)
	}

	if !s.Cancel(queued) {
		t.Fatal("queued job should be cancellable")
	}
	waitTerminal(t, queued)
	if snap := s.Snapshot(queued); snap.State != StateCanceled {
		t.Fatalf("queued cancel: got %s", snap.State)
	}

	if !s.Cancel(running) {
		t.Fatal("running job should be cancellable")
	}
	waitTerminal(t, running)
	if snap := s.Snapshot(running); snap.State != StateCanceled {
		t.Fatalf("running cancel: got %s", snap.State)
	}
	if s.Cancel(running) {
		t.Fatal("terminal job must not report as cancelled again")
	}
	close(release)
	shutdownClean(t, s)
}

func TestJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)

	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	job, err := s.Submit(Request{Format: "phg", Netlist: tinyPHG, Device: "XC3020", Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	snap := s.Snapshot(job)
	if snap.State != StateFailed || !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job: got %s (%v)", snap.State, snap.Err)
	}
}

func TestFingerprintSemantics(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	load := func(body string) *hypergraph.Hypergraph {
		c, err := driver.Load(driver.Source{Reader: strings.NewReader(body), Format: "phg"}, dev)
		if err != nil {
			t.Fatal(err)
		}
		return c.Hypergraph
	}
	a := load(tinyPHG)
	b := load(tinyPHG)
	if Fingerprint(a, dev, "fpart", "") != Fingerprint(b, dev, "fpart", "") {
		t.Fatal("identical content must fingerprint identically")
	}
	// Renamed nodes, same structure: still identical (content addressing).
	renamed := "phg\nnode x 2\nnode y 2\nnode z 2\nnode w 2\npad r\npad s\nnet m1 0 1 4\nnet m2 1 2\nnet m3 2 3 5\nnet m4 0 3\n"
	if Fingerprint(load(renamed), dev, "fpart", "") != Fingerprint(a, dev, "fpart", "") {
		t.Fatal("names must not affect the fingerprint")
	}
	if Fingerprint(a, dev, "kwayx", "") == Fingerprint(a, dev, "fpart", "") {
		t.Fatal("method must affect the fingerprint")
	}
	dev2, _ := device.ByName("XC3042")
	if Fingerprint(a, dev2, "fpart", "") == Fingerprint(a, dev, "fpart", "") {
		t.Fatal("device must affect the fingerprint")
	}
	if Fingerprint(a, dev.WithFill(0.5), "fpart", "") == Fingerprint(a, dev, "fpart", "") {
		t.Fatal("fill override must affect the fingerprint")
	}
	structDiff := "phg\nnode a 1\nnode b 2\nnode c 2\nnode d 2\npad p\npad q\nnet n1 0 1 4\nnet n2 1 2\nnet n3 2 3 5\nnet n4 0 3\n"
	if Fingerprint(load(structDiff), dev, "fpart", "") == Fingerprint(a, dev, "fpart", "") {
		t.Fatal("structure must affect the fingerprint")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.add("a", cacheEntry{})
	c.add("b", cacheEntry{})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.add("c", cacheEntry{}) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if c.len() != 2 {
		t.Fatalf("cache len: want 2, got %d", c.len())
	}
}

func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 1, JobRetention: 3, QueueDepth: 16})
	defer shutdownClean(t, s)

	var last *Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(phgRequest(uniquePHG(20 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		last = j
	}
	if got := len(s.Jobs()); got > 3 {
		t.Fatalf("retention: want ≤3 jobs retained, got %d", got)
	}
	if _, ok := s.Job(last.ID()); !ok {
		t.Fatal("most recent job must stay queryable")
	}
}

func TestLimitsRejectHostileUpload(t *testing.T) {
	s := New(Config{Workers: 1, Limits: netlist.Limits{MaxNodes: 3}})
	defer shutdownClean(t, s)
	_, err := s.Submit(phgRequest(tinyPHG)) // 6 nodes > limit 3
	var le *netlist.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("hostile upload should hit a LimitError, got %v", err)
	}
}
