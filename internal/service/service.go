// Package service turns the one-shot partitioning pipeline into a
// long-running daemon: a bounded job queue feeding a worker pool, a
// content-addressed result cache, and live per-job event streaming.
//
// The shape of the system:
//
//	POST /v1/partition ──▶ admission ──▶ bounded queue ──▶ worker pool
//	                          │                                │
//	                          │ cache hit / in-flight          ▼
//	                          ▼ coalescing               driver.Run
//	                      result cache ◀──────────── quality.Analyze
//	                                                        │
//	     GET /v1/jobs/{id}/events ◀── obs.Broadcast fan-out ◀┘
//
// Partitioning is a repeatedly-invoked inner service inside larger CAD
// loops: the same circuit/device pair is queried many times under sweeps
// and what-if edits. The cache keys on the content of the canonicalized
// hypergraph plus device and method, so identical queries — whatever their
// transport or naming — return in O(1), and concurrent identical queries
// coalesce onto a single computation.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpart/internal/board"
	"fpart/internal/cluster"
	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/engine"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/obs"
	"fpart/internal/quality"
	"fpart/internal/store"
)

// Config tunes the service. The zero value is production-ready.
type Config struct {
	// Workers sizes the worker pool and the shared CPU budget; 0 means
	// runtime.GOMAXPROCS(0) (via driver.ClampParallel).
	Workers int
	// Deprecated: ignored. SpecWidth was the width of the removed
	// speculative peel; the service never reads it.
	SpecWidth int
	// QueueDepth bounds the number of admitted-but-unstarted jobs; a full
	// queue rejects submissions with ErrQueueFull (HTTP 429). 0 means 64.
	QueueDepth int
	// CacheEntries bounds the result cache; 0 means 128.
	CacheEntries int
	// JobRetention bounds how many finished jobs stay queryable; the
	// oldest finished jobs are forgotten first. 0 means 1024.
	JobRetention int
	// DefaultTimeout bounds each job's run when the submission does not
	// carry its own deadline; 0 means no limit.
	DefaultTimeout time.Duration
	// MaxRequestBytes caps an HTTP request body; 0 means 8 MiB.
	MaxRequestBytes int64
	// EventBuffer sizes each event subscriber's channel; 0 means 256.
	EventBuffer int
	// Limits bounds the netlist parsers for uploaded circuits; the zero
	// value applies netlist.DefaultLimits.
	Limits netlist.Limits
	// Store, when non-nil, is the disk-backed content-addressed result
	// store layered under the in-memory cache: completed runs are written
	// through, and a memory miss probes the disk before queueing a
	// computation, so results survive restarts (and arrive via work
	// stealing). nil keeps the service memory-only.
	Store *store.Store
	// DegradeAt is the queue-fill fraction at which admission control
	// degrades expensive methods to a cheaper registry engine instead of
	// rejecting with ErrQueueFull (0 = 0.75; negative disables
	// degradation).
	DegradeAt float64
	// StealTTL bounds how long a stolen job may stay out with a work
	// thief before the victim requeues it locally (0 = 30s).
	StealTTL time.Duration
	// GroupRetention bounds how many batch job groups stay queryable
	// (0 = 256).
	GroupRetention int
}

func (c Config) normalize() Config {
	c.Workers = driver.ClampParallel(c.Workers)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 1024
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.75
	}
	if c.StealTTL <= 0 {
		c.StealTTL = 30 * time.Second
	}
	if c.GroupRetention <= 0 {
		c.GroupRetention = 256
	}
	return c
}

// Errors surfaced by Submit; the HTTP layer maps them onto status codes.
var (
	// ErrQueueFull means admission succeeded but the queue is at capacity
	// (HTTP 429: retry with backoff).
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrShuttingDown means the service no longer admits jobs (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Request describes one partitioning submission. Exactly one of Circuit
// (a built-in benchmark) or Netlist (an uploaded netlist body in Format)
// must be set.
type Request struct {
	// Circuit names a built-in MCNC benchmark.
	Circuit string
	// Format and Netlist carry an uploaded netlist ("phg", "hgr", "blif").
	Format  string
	Netlist string
	// Arch is the BLIF CLB architecture ("" = device family default).
	Arch string
	// Device names the target FPGA (required): a catalog name, synthetic
	// CELLSxPINS, or a resource-vector spec like "LUT:1500,FF:3000/200".
	Device string
	// Resources appends extra resource caps ("DSP:12,BRAM:4") to the
	// device, whatever form Device took.
	Resources string
	// Board, when non-empty, gates the result on a multi-FPGA board
	// topology ("crossbar:N", "chain:N[:wires=W]", "mesh:CxR[:wires=W]"):
	// an unplaceable or unroutable solution reports Feasible=false.
	Board string
	// Fill overrides the device filling ratio δ (0 keeps the published
	// value).
	Fill float64
	// Method selects the partitioner ("" = "fpart").
	Method string
	// Timeout bounds this job's run (0 = the service default).
	Timeout time.Duration
}

// Job is one partitioning run owned by the service. All fields are
// maintained under the service mutex; read them through Snapshot.
type Job struct {
	id      string
	key     string
	method  string
	device  device.Device
	board   *board.Board
	circuit string

	h *hypergraph.Hypergraph
	// req retains the original submission (cleared at completion) so a
	// queued job can be handed to a work-stealing peer verbatim.
	req Request
	// degradedFrom names the method the client asked for when admission
	// control degraded this job to a cheaper engine ("" otherwise).
	degradedFrom string

	state     State
	cached    bool
	coalesced bool
	// stolen marks a queued job handed to the work-stealing peer named in
	// thief; stealTimer requeues it locally if no result comes back.
	stolen     bool
	thief      string
	stealTimer *time.Timer
	submitted  time.Time
	started    time.Time
	finished   time.Time

	bcast  *obs.Broadcast
	cancel context.CancelFunc
	// followers are identical-key jobs coalesced onto this leader; they
	// complete when it does.
	followers []*Job

	result *driver.Result
	report *quality.Report
	err    error
	done   chan struct{}

	timeout time.Duration
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's content-addressed cache key.
func (j *Job) Key() string { return j.key }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Events returns the job's broadcast stream (shared with the coalescing
// leader for follower jobs).
func (j *Job) Events() *obs.Broadcast { return j.bcast }

// Snapshot is an immutable copy of a job's externally visible state.
type Snapshot struct {
	ID      string
	Key     string
	State   State
	Method  string
	Device  string
	Circuit string
	// DegradedFrom names the originally requested method when admission
	// control substituted a cheaper engine ("" when it did not).
	DegradedFrom string
	Cached       bool
	Coalesced    bool
	// Stolen reports that the job is (or was) out with the named work
	// thief.
	Stolen    bool
	Thief     string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Err       error
	// Result and Report are non-nil once State is StateDone.
	Result *driver.Result
	Report *quality.Report
}

// Service is the concurrent partitioning daemon core. Create one with New,
// serve its Handler, and stop it with Shutdown.
type Service struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing and retention
	inflight map[string]*Job
	cache    *resultCache
	groups   map[string]*Group
	grpOrder []string
	closed   bool

	// clusterNode is this peer's view of the fpartd cluster (nil when
	// running single-node). Set once via SetCluster before serving.
	clusterNode *cluster.Node

	queue   chan *Job
	wg      sync.WaitGroup
	baseCtx context.Context
	cancel  context.CancelFunc

	nextID    atomic.Int64
	nextGroup atomic.Int64
	m         metrics

	// budget is the shared CPU budget (capacity = Workers): job dispatches
	// hold one token each and in-run speculation borrows spare ones.
	budget *core.Budget

	// run dispatches a job's computation; tests substitute it to model
	// slow or failing runs.
	run func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error)
}

// New starts a service with cfg's worker pool running.
func New(cfg Config) *Service {
	cfg = cfg.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		cache:    newResultCache(cfg.CacheEntries),
		groups:   make(map[string]*Group),
		queue:    make(chan *Job, cfg.QueueDepth),
		baseCtx:  ctx,
		cancel:   cancel,
		budget:   core.NewBudget(cfg.Workers),
		run:      driver.RunOpts,
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Config returns the normalized configuration the service runs with.
func (s *Service) Config() Config { return s.cfg }

// SetCluster attaches this peer's cluster node: submissions whose
// fingerprint another peer owns are forwarded there, the steal endpoints
// go live, and the cluster counters join /metrics. Call it once, before
// the handler serves traffic.
func (s *Service) SetCluster(n *cluster.Node) { s.clusterNode = n }

// Cluster returns the attached cluster node (nil when single-node).
func (s *Service) Cluster() *cluster.Node { return s.clusterNode }

// prepared is a validated, circuit-loaded submission: everything needed
// to either admit it locally or route it to its owning peer.
type prepared struct {
	req     Request
	dev     device.Device
	board   *board.Board
	method  string
	circuit *driver.Circuit
	timeout time.Duration
	// key is the content-addressed fingerprint under the *requested*
	// method; admission may re-key if it degrades the method.
	key string
}

// prepare validates req and loads its circuit without touching the
// queue. The HTTP layer uses the returned fingerprint to route the
// submission across the cluster before committing to local admission.
func (s *Service) prepare(req Request) (*prepared, error) {
	dev, err := device.ParseSpec(req.Device)
	if err != nil {
		return nil, err
	}
	if req.Resources != "" {
		extra, err := device.ParseResources(req.Resources)
		if err != nil {
			return nil, err
		}
		if dev, err = dev.WithResources(extra); err != nil {
			return nil, err
		}
	}
	var brd *board.Board
	if req.Board != "" {
		b, err := board.ParseSpec(req.Board)
		if err != nil {
			return nil, err
		}
		brd = &b
	}
	if req.Fill != 0 {
		if req.Fill < 0 || req.Fill > 1 {
			return nil, fmt.Errorf("fill %v out of range (0,1]", req.Fill)
		}
		dev = dev.WithFill(req.Fill)
	}
	method := req.Method
	if method == "" {
		method = "fpart"
	}
	if !driver.ValidMethod(method) {
		return nil, fmt.Errorf("unknown method %q (valid: %v)", method, driver.Methods())
	}
	if (req.Circuit == "") == (req.Netlist == "") {
		return nil, errors.New("set exactly one of circuit (built-in) or netlist (upload)")
	}
	src := driver.Source{Builtin: req.Circuit, Arch: req.Arch, Limits: s.cfg.Limits}
	if req.Netlist != "" {
		src.Reader = strings.NewReader(req.Netlist)
		src.Format = req.Format
		src.Name = "upload." + req.Format
	}
	c, err := driver.Load(src, dev)
	if err != nil {
		return nil, err
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	return &prepared{
		req:     req,
		dev:     dev,
		board:   brd,
		method:  method,
		circuit: c,
		timeout: timeout,
		key:     Fingerprint(c.Hypergraph, dev, method, req.Board),
	}, nil
}

// Submit validates and admits one partitioning request. The returned job
// is already terminal for cache hits (memory or disk). ErrQueueFull and
// ErrShuttingDown report admission failures; other errors are invalid
// requests. Under queue pressure, admission may degrade the default
// expensive method to a cheaper registry engine — the job then reports
// the original method in Snapshot.DegradedFrom.
func (s *Service) Submit(req Request) (*Job, error) {
	prep, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	return s.submitPrepared(prep, true)
}

// submitPrepared admits a prepared submission: memory cache, in-flight
// coalescing, disk store, degradation ladder (when mayDegrade), then the
// bounded queue — in that order.
func (s *Service) submitPrepared(prep *prepared, mayDegrade bool) (*Job, error) {
	method, key := prep.method, prep.key

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	job := &Job{
		id:        "job-" + strconv.FormatInt(s.nextID.Add(1), 10),
		device:    prep.dev,
		board:     prep.board,
		circuit:   prep.circuit.Name,
		h:         prep.circuit.Hypergraph,
		req:       prep.req,
		submitted: time.Now(),
		done:      make(chan struct{}),
		timeout:   prep.timeout,
	}

	for attempt := 0; ; attempt++ {
		job.method, job.key = method, key

		if ent, ok := s.cache.get(key); ok {
			// O(1) path: replay the cached outcome, including its event
			// stream, without touching the queue.
			s.m.cacheHits.Add(1)
			s.finishFromCacheLocked(job, ent)
			return job, nil
		}

		if leader, ok := s.inflight[key]; ok {
			// An identical computation is already queued or running: ride it.
			job.state = leader.state
			job.coalesced = true
			job.bcast = leader.bcast
			leader.followers = append(leader.followers, job)
			s.m.coalesced.Add(1)
			s.remember(job)
			return job, nil
		}

		if ent, ok := s.storeGetLocked(job); ok {
			// Disk layer: a previous process (or a peer's steal run)
			// already computed this fingerprint. Promote it to the memory
			// cache and answer without queueing.
			s.cache.add(key, ent)
			s.m.storeHits.Add(1)
			s.finishFromCacheLocked(job, ent)
			return job, nil
		}

		// Nothing memoized: this request costs a computation. If the
		// queue is near capacity and the method has a cheaper registered
		// engine, degrade once and retry the lookups under the new key —
		// a degraded request can still be a cache hit.
		if mayDegrade && attempt == 0 && s.shouldDegradeLocked() {
			if alt, ok := s.cheaperEngineLocked(method); ok {
				job.degradedFrom = method
				method = alt
				key = Fingerprint(prep.circuit.Hypergraph, prep.dev, alt, prep.req.Board)
				s.m.degraded.Add(1)
				continue
			}
		}
		break
	}

	job.state = StateQueued
	job.bcast = obs.NewBroadcast()
	select {
	case s.queue <- job:
	default:
		s.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.inflight[key] = job
	s.m.cacheMisses.Add(1)
	s.remember(job)
	return job, nil
}

// finishFromCacheLocked completes a freshly submitted job from a
// memoized entry, replaying the original run's event stream. Callers
// hold mu.
func (s *Service) finishFromCacheLocked(job *Job, ent cacheEntry) {
	job.state = StateDone
	job.cached = true
	job.started = job.submitted
	job.finished = job.submitted
	job.result = ent.res
	job.report = &ent.report
	job.req = Request{}
	job.bcast = obs.NewBroadcast()
	for _, e := range ent.events {
		job.bcast.Event(e)
	}
	job.bcast.Close()
	close(job.done)
	s.m.finished(job.method, StateDone)
	s.remember(job)
}

// storeGetLocked probes the disk store for the job's fingerprint and
// rebuilds the cache entry. Callers hold mu; the read is one small file.
func (s *Service) storeGetLocked(job *Job) (cacheEntry, bool) {
	if s.cfg.Store == nil {
		return cacheEntry{}, false
	}
	payload, ok := s.cfg.Store.Get(job.key)
	if !ok {
		s.m.storeMisses.Add(1)
		return cacheEntry{}, false
	}
	res, sr, err := decodeStored(payload, job.h)
	if err != nil {
		// The envelope passed the store's checksum but does not fit this
		// circuit or decode — count it and recompute rather than serve it.
		s.m.storeBad.Add(1)
		return cacheEntry{}, false
	}
	report := quality.Analyze(res.Partition, res.M)
	return cacheEntry{res: res, report: report, events: sr.Events}, true
}

// shouldDegradeLocked reports whether admission is under enough queue
// pressure to trade quality for latency. Callers hold mu.
func (s *Service) shouldDegradeLocked() bool {
	if s.cfg.DegradeAt < 0 || s.cfg.DegradeAt > 1 {
		return false
	}
	limit := int(s.cfg.DegradeAt * float64(cap(s.queue)))
	if limit < 1 {
		limit = 1
	}
	return len(s.queue) >= limit
}

// cheaperEngineLocked picks the degradation target for method: the
// registered engine with a strictly lower Caps.Cost rank and the lowest
// measured mean run time (per-method latency histograms); engines with
// no observations yet fall back to their static cost rank. Callers hold
// mu.
func (s *Service) cheaperEngineLocked(method string) (string, bool) {
	ladder := engine.CheaperThan(method)
	if len(ladder) == 0 {
		return "", false
	}
	best, bestMean := "", 0.0
	for _, inf := range ladder {
		if mean, ok := s.m.meanRunSeconds(inf.Name); ok {
			if best == "" || mean < bestMean {
				best, bestMean = inf.Name, mean
			}
		}
	}
	if best != "" {
		return best, true
	}
	// No latency data yet: the ladder is sorted cheapest-first by rank.
	return ladder[0].Name, true
}

// remember records the job for lookup and trims retention. Callers hold mu.
func (s *Service) remember(job *Job) {
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.m.submitted.Add(1)
	for len(s.order) > s.cfg.JobRetention {
		evicted := false
		for i, id := range s.order {
			if j := s.jobs[id]; j != nil && j.terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live: keep them all queryable
		}
	}
}

func (j *Job) terminal() bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns snapshots of the retained jobs in submission order.
func (s *Service) Jobs() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.snapshotLocked())
		}
	}
	return out
}

// Snapshot returns an immutable copy of the job's state.
func (s *Service) Snapshot(j *Job) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() Snapshot {
	return Snapshot{
		ID:           j.id,
		Key:          j.key,
		State:        j.state,
		Method:       j.method,
		Device:       j.device.Name,
		Circuit:      j.circuit,
		DegradedFrom: j.degradedFrom,
		Cached:       j.cached,
		Coalesced:    j.coalesced,
		Stolen:       j.thief != "",
		Thief:        j.thief,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
		Err:          j.err,
		Result:       j.result,
		Report:       j.report,
	}
}

// Cancel aborts a job: queued jobs (and their followers) complete as
// canceled without running; running jobs have their context cancelled and
// complete as canceled when the engine unwinds. Terminal jobs are left
// untouched. Reports whether the job was still live.
func (s *Service) Cancel(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateQueued:
		if j.coalesced {
			// Detach the follower only; the leader computation stands.
			s.finishFollowerLocked(j, StateCanceled, context.Canceled)
			return true
		}
		delete(s.inflight, j.key)
		s.completeLocked(j, StateCanceled, nil, nil, context.Canceled)
		return true
	case StateRunning:
		if j.coalesced {
			s.finishFollowerLocked(j, StateCanceled, context.Canceled)
			return true
		}
		if j.stolen {
			// The computation is out with a work thief; finish the local
			// job now and drop the thief's eventual push as stale.
			j.stolen = false
			if j.stealTimer != nil {
				j.stealTimer.Stop()
			}
			delete(s.inflight, j.key)
			s.completeLocked(j, StateCanceled, nil, nil, context.Canceled)
			return true
		}
		if j.cancel != nil {
			j.cancel()
		}
		return true
	}
	return false
}

// worker pulls jobs off the queue until the queue closes at shutdown.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

func (s *Service) runJob(job *Job) {
	s.mu.Lock()
	if job.state != StateQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	for _, f := range job.followers {
		if f.state == StateQueued {
			f.state = StateRunning
			f.started = job.started
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if job.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, job.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	job.cancel = cancel
	s.mu.Unlock()

	s.m.busy.Add(1)
	res, err := s.run(ctx, job.method, job.h, job.device, driver.Options{
		Sink:   job.bcast,
		Budget: s.budget,
		Board:  job.board,
	})
	s.m.busy.Add(-1)
	s.m.computations.Add(1)
	cancel()

	var report quality.Report
	if err == nil {
		// Write-through to the disk store and analyze the result before
		// taking the service lock (file I/O and the O(pins) analysis off
		// the submission path).
		s.persistResult(job, res)
		report = quality.Analyze(res.Partition, res.M)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, job.key)
	if err != nil {
		state := StateFailed
		if errors.Is(err, context.Canceled) {
			state = StateCanceled
		}
		s.completeLocked(job, state, nil, nil, err)
		return
	}
	s.cache.add(job.key, cacheEntry{res: res, report: report, events: job.bcast.Events()})
	if res.Stats != nil {
		s.m.observePhases(job.method, res.Stats)
	}
	s.completeLocked(job, StateDone, res, &report, nil)
}

// completeLocked moves a leader job (and its followers) to a terminal
// state, attaching res and its quality report (both nil on failure).
// Callers hold mu.
func (s *Service) completeLocked(job *Job, state State, res *driver.Result, report *quality.Report, err error) {
	job.state = state
	job.finished = time.Now()
	job.err = err
	job.result = res
	job.report = report
	s.m.finished(job.method, state)
	close(job.done)
	for _, f := range job.followers {
		if f.terminal() {
			continue // cancelled earlier
		}
		f.state = state
		f.finished = job.finished
		f.err = err
		f.result = job.result
		f.report = job.report
		s.m.finished(f.method, state)
		close(f.done)
	}
	job.followers = nil
	job.bcast.Close()
	job.h = nil         // the circuit is no longer needed; let it collect
	job.req = Request{} // drop any retained netlist body
	if job.stealTimer != nil {
		job.stealTimer.Stop()
		job.stealTimer = nil
	}
}

// persistResult writes one finished run through to the disk store.
func (s *Service) persistResult(job *Job, res *driver.Result) {
	if s.cfg.Store == nil {
		return
	}
	payload, err := encodeStored(job.circuit, job.method, res, job.bcast.Events())
	if err == nil {
		err = s.cfg.Store.Put(job.key, payload)
	}
	if err != nil {
		s.m.storeFailures.Add(1)
	}
}

// finishFollowerLocked detaches one coalesced follower early (cancel path).
func (s *Service) finishFollowerLocked(f *Job, state State, err error) {
	f.state = state
	f.finished = time.Now()
	f.err = err
	s.m.finished(f.method, state)
	close(f.done)
}

// QueueDepth reports the number of admitted-but-unstarted jobs.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Idle reports whether this peer has spare capacity worth stealing for:
// an empty queue and at least one free worker. It is the cluster steal
// loop's gate (cluster.Source).
func (s *Service) Idle() bool {
	return len(s.queue) == 0 && s.m.busy.Load() < int64(s.cfg.Workers)
}

// StealOne hands the oldest queued leader job to the work thief named in
// thief. The job stays owned by this service — externally it turns
// "running" — and is requeued locally if no result is pushed back within
// Config.StealTTL. ok is false when nothing is stealable.
func (s *Service) StealOne(thief string) (*cluster.StolenJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil || j.state != StateQueued || j.coalesced {
			continue
		}
		j.state = StateRunning // the worker pulling it off the queue skips it
		j.started = time.Now()
		j.stolen = true
		j.thief = thief
		for _, f := range j.followers {
			if f.state == StateQueued {
				f.state = StateRunning
				f.started = j.started
			}
		}
		j.stealTimer = time.AfterFunc(s.cfg.StealTTL, func() { s.requeueStolen(j) })
		s.m.stolenServed.Add(1)
		return &cluster.StolenJob{
			ID:  j.id,
			Key: j.key,
			Spec: cluster.JobSpec{
				Circuit:   j.req.Circuit,
				Format:    j.req.Format,
				Netlist:   j.req.Netlist,
				Arch:      j.req.Arch,
				Device:    j.req.Device,
				Resources: j.req.Resources,
				Board:     j.req.Board,
				Fill:      j.req.Fill,
				// The thief must run what admission decided, not what the
				// client asked for — a degraded job stays degraded.
				Method:    j.method,
				TimeoutMS: j.timeout.Milliseconds(),
			},
		}, true
	}
	return nil, false
}

// requeueStolen returns a job whose thief went quiet to the local queue.
func (s *Service) requeueStolen(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.stolen || j.terminal() {
		return
	}
	j.stolen = false
	j.thief = ""
	s.m.stealRequeued.Add(1)
	if s.closed {
		delete(s.inflight, j.key)
		s.completeLocked(j, StateCanceled, nil, nil, ErrShuttingDown)
		return
	}
	j.state = StateQueued
	select {
	case s.queue <- j:
	default:
		// The queue refilled while the job was out; failing it honestly
		// beats blocking the timer goroutine on a full queue.
		delete(s.inflight, j.key)
		s.completeLocked(j, StateFailed, nil, nil, errors.New("service: stolen job lost and queue full"))
	}
}

// CompleteStolen finishes a stolen job from the thief's pushed result
// envelope (the storedResult codec). Late pushes — after cancellation,
// the requeue TTL, or shutdown — are dropped without error; an envelope
// for another device or method than the job's is rejected.
func (s *Service) CompleteStolen(id string, payload []byte) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("unknown job %q", id)
	}
	if !j.stolen || j.terminal() {
		s.mu.Unlock()
		return nil // stale push; the job moved on
	}
	h := j.h
	s.mu.Unlock()

	// Decode (and rebuild the partition) off the lock; pushes race only
	// against the requeue timer, which the re-check below handles.
	res, sr, err := decodeStored(payload, h)
	if err != nil {
		return fmt.Errorf("stolen result for %s: %w", id, err)
	}
	if res.Partition.Device().Name != j.device.Name {
		return fmt.Errorf("stolen result for %s targets %s, want %s", id, res.Partition.Device().Name, j.device.Name)
	}
	if sr.Method != j.method {
		return fmt.Errorf("stolen result for %s ran %s, want %s", id, sr.Method, j.method)
	}
	report := quality.Analyze(res.Partition, res.M)
	if s.cfg.Store != nil {
		// Content-addressed, so persisting even a push that loses the
		// race below is correct — it is the same computation.
		if err := s.cfg.Store.Put(j.key, payload); err != nil {
			s.m.storeFailures.Add(1)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.stolen || j.terminal() {
		return nil
	}
	j.stolen = false
	if j.stealTimer != nil {
		j.stealTimer.Stop()
	}
	delete(s.inflight, j.key)
	for _, e := range sr.Events {
		j.bcast.Event(e)
	}
	s.cache.add(j.key, cacheEntry{res: res, report: report, events: sr.Events})
	s.m.stolenCompleted.Add(1)
	s.completeLocked(j, StateDone, res, &report, nil)
	return nil
}

// Execute runs a job stolen from a peer through this service's own
// pipeline — budget, cache, and store included — and returns the result
// envelope to push back (cluster.Source). The victim's admission already
// chose the method, so the thief runs it as given and never degrades it.
func (s *Service) Execute(ctx context.Context, job *cluster.StolenJob) ([]byte, error) {
	prep, err := s.prepare(Request{
		Circuit:   job.Spec.Circuit,
		Format:    job.Spec.Format,
		Netlist:   job.Spec.Netlist,
		Arch:      job.Spec.Arch,
		Device:    job.Spec.Device,
		Resources: job.Spec.Resources,
		Board:     job.Spec.Board,
		Fill:      job.Spec.Fill,
		Method:    job.Spec.Method,
		Timeout:   time.Duration(job.Spec.TimeoutMS) * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	j, err := s.submitPrepared(prep, false)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		s.Cancel(j)
		return nil, ctx.Err()
	}
	snap := s.Snapshot(j)
	if snap.State != StateDone {
		return nil, fmt.Errorf("stolen job ended %s: %v", snap.State, snap.Err)
	}
	return encodeStored(snap.Circuit, snap.Method, snap.Result, j.Events().Events())
}

// Shutdown stops admission, waits for queued and running jobs to drain,
// and — if ctx expires first — cancels every in-flight job's context and
// waits for the workers to unwind. It returns ctx.Err() on the forced
// path, nil on a clean drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // abort in-flight runs; queued jobs fail fast
		<-done
		return ctx.Err()
	}
}
