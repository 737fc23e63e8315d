package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"fpart/internal/obs"
)

// phaseBounds are the per-phase wall-time histogram bucket upper bounds,
// in seconds.
var phaseBounds = [...]float64{0.001, 0.01, 0.1, 1, 10}

// histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// bucket i counts observations ≤ phaseBounds[i]; +Inf is implicit).
type histogram struct {
	mu      sync.Mutex
	buckets [len(phaseBounds)]uint64
	count   uint64
	sum     float64
}

func (h *histogram) observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += seconds
	for i, b := range phaseBounds {
		if seconds <= b {
			h.buckets[i]++
		}
	}
}

// methodState keys the per-method job lifecycle counters.
type methodState struct {
	method string
	state  State
}

// metrics aggregates the service's operational counters. Counters are
// atomic so the hot paths never contend with the /metrics scrape; the
// per-method breakdowns live behind one small mutex because every method
// label is a map key.
type metrics struct {
	submitted    atomic.Int64
	done         atomic.Int64
	failed       atomic.Int64
	canceled     atomic.Int64
	rejected     atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	coalesced    atomic.Int64
	computations atomic.Int64
	busy         atomic.Int64

	// Disk-store layer (service-side view; the store keeps its own
	// hit/miss/eviction counters).
	storeHits     atomic.Int64
	storeMisses   atomic.Int64
	storeBad      atomic.Int64
	storeFailures atomic.Int64

	// Cluster: stolen-job lifecycle on the victim side, plus batch
	// activity.
	stolenServed    atomic.Int64
	stolenCompleted atomic.Int64
	stealRequeued   atomic.Int64
	batchGroups     atomic.Int64

	mu sync.Mutex
	// jobs counts terminal jobs per (method, state):
	// fpartd_jobs_total{method,state}.
	jobs map[methodState]int64
	// phase holds the per-phase wall-time histograms per method:
	// fpartd_phase_seconds{method,phase}.
	phase map[string]*[obs.NumPhases]histogram
}

func (m *metrics) finished(method string, state State) {
	switch state {
	case StateDone:
		m.done.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCanceled:
		m.canceled.Add(1)
	default:
		return
	}
	m.mu.Lock()
	if m.jobs == nil {
		m.jobs = make(map[methodState]int64)
	}
	m.jobs[methodState{method, state}]++
	m.mu.Unlock()
}

// observePhases folds one completed run's per-phase wall times into the
// method's aggregates.
func (m *metrics) observePhases(method string, st *obs.Stats) {
	m.mu.Lock()
	if m.phase == nil {
		m.phase = make(map[string]*[obs.NumPhases]histogram)
	}
	hs, ok := m.phase[method]
	if !ok {
		hs = new([obs.NumPhases]histogram)
		m.phase[method] = hs
	}
	m.mu.Unlock()
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		hs[p].observe(st.PhaseTime[p].Seconds())
	}
}

// hitRate is cache hits (including coalesced riders) over all admissions
// that could have hit.
func (m *metrics) hitRate() float64 {
	hits := m.cacheHits.Load() + m.coalesced.Load()
	total := hits + m.cacheMisses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// WriteMetrics renders the Prometheus text exposition of the service's
// state: queue depth, worker utilization, cache effectiveness, job
// lifecycle counters, and the per-phase timing histograms.
func (s *Service) WriteMetrics(w io.Writer) {
	s.mu.Lock()
	cacheLen := s.cache.len()
	jobsRetained := len(s.jobs)
	s.mu.Unlock()

	g := func(name string, v any, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	c := func(name string, v int64, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	g("fpartd_queue_depth", len(s.queue), "admitted jobs waiting for a worker")
	g("fpartd_queue_capacity", cap(s.queue), "bounded queue size")
	g("fpartd_workers", s.cfg.Workers, "worker pool size")
	g("fpartd_workers_busy", s.m.busy.Load(), "workers currently partitioning")
	g("fpartd_cache_entries", cacheLen, "memoized results")
	g("fpartd_cache_hit_rate", fmt.Sprintf("%.4f", s.m.hitRate()), "cache hits (incl. coalesced) / lookups")
	g("fpartd_jobs_retained", jobsRetained, "jobs queryable via the API")

	c("fpartd_jobs_submitted_total", s.m.submitted.Load(), "admitted submissions")
	c("fpartd_jobs_done_total", s.m.done.Load(), "jobs finished successfully")
	c("fpartd_jobs_failed_total", s.m.failed.Load(), "jobs finished with an error")
	c("fpartd_jobs_canceled_total", s.m.canceled.Load(), "jobs canceled or aborted")

	// Per-method job lifecycle, labelled by the engine-registry method name.
	s.m.mu.Lock()
	keys := make([]methodState, 0, len(s.m.jobs))
	for k := range s.m.jobs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].method != keys[j].method {
			return keys[i].method < keys[j].method
		}
		return keys[i].state < keys[j].state
	})
	fmt.Fprintf(w, "# HELP fpartd_jobs_total terminal jobs by method and state\n# TYPE fpartd_jobs_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "fpartd_jobs_total{method=%q,state=%q} %d\n", k.method, string(k.state), s.m.jobs[k])
	}
	s.m.mu.Unlock()

	c("fpartd_jobs_rejected_total", s.m.rejected.Load(), "submissions rejected by queue backpressure")
	c("fpartd_cache_hits_total", s.m.cacheHits.Load(), "submissions answered from the result cache")
	c("fpartd_cache_misses_total", s.m.cacheMisses.Load(), "submissions that queued a computation")
	c("fpartd_coalesced_total", s.m.coalesced.Load(), "submissions coalesced onto an in-flight computation")
	c("fpartd_computations_total", s.m.computations.Load(), "partitioning runs executed by the pool")

	c("fpartd_batch_groups_total", s.m.batchGroups.Load(), "batch job groups admitted")
	c("fpartd_stolen_served_total", s.m.stolenServed.Load(), "queued jobs handed to stealing peers")
	c("fpartd_stolen_completed_total", s.m.stolenCompleted.Load(), "stolen jobs completed by a peer's result push")
	c("fpartd_steal_requeued_total", s.m.stealRequeued.Load(), "stolen jobs requeued after the thief went silent")

	if st := s.cfg.Store; st != nil {
		ss := st.StatsNow()
		g("fpartd_store_entries", ss.Entries, "results persisted on disk")
		g("fpartd_store_bytes", ss.Bytes, "bytes of persisted results on disk")
		c("fpartd_store_hits_total", ss.Hits, "disk-store lookups that returned a result")
		c("fpartd_store_misses_total", ss.Misses, "disk-store lookups that found nothing")
		c("fpartd_store_writes_total", ss.Writes, "results written to the disk store")
		c("fpartd_store_evictions_total", ss.Evictions, "results evicted to respect the byte budget")
		c("fpartd_store_corrupt_total", ss.Corrupt, "persisted entries dropped as corrupt")
		c("fpartd_store_decode_errors_total", s.m.storeBad.Load(), "persisted payloads the service could not rebuild")
		c("fpartd_store_write_failures_total", s.m.storeFailures.Load(), "results the service failed to persist")
	}
	if n := s.clusterNode; n != nil {
		forwards, fallbacks, steals, stealFails := n.Counters()
		c("fpartd_forward_total", forwards, "submissions forwarded to their owning peer")
		c("fpartd_forward_fallback_total", fallbacks, "forwards that fell back to local execution")
		c("fpartd_steal_total", steals, "jobs stolen from busy peers")
		c("fpartd_steal_failures_total", stealFails, "steal attempts that failed in transit")
	}

	const hn = "fpartd_phase_seconds"
	fmt.Fprintf(w, "# HELP %s wall time per algorithm phase per run, by method\n# TYPE %s histogram\n", hn, hn)
	s.m.mu.Lock()
	methods := make([]string, 0, len(s.m.phase))
	for method := range s.m.phase {
		methods = append(methods, method)
	}
	sort.Strings(methods)
	s.m.mu.Unlock()
	for _, method := range methods {
		s.m.mu.Lock()
		hs := s.m.phase[method]
		s.m.mu.Unlock()
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			h := &hs[p]
			h.mu.Lock()
			for i, b := range phaseBounds {
				fmt.Fprintf(w, "%s_bucket{method=%q,phase=%q,le=%q} %d\n", hn, method, p.String(), fmt.Sprintf("%g", b), h.buckets[i])
			}
			fmt.Fprintf(w, "%s_bucket{method=%q,phase=%q,le=\"+Inf\"} %d\n", hn, method, p.String(), h.count)
			fmt.Fprintf(w, "%s_sum{method=%q,phase=%q} %g\n", hn, method, p.String(), h.sum)
			fmt.Fprintf(w, "%s_count{method=%q,phase=%q} %d\n", hn, method, p.String(), h.count)
			h.mu.Unlock()
		}
	}
}
