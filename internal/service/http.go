package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"fpart/internal/board"
	"fpart/internal/cluster"
	"fpart/internal/engine"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/quality"
)

// apiRequest is the JSON body of POST /v1/partition.
type apiRequest struct {
	// Circuit names a built-in benchmark; Netlist uploads one instead.
	Circuit string  `json:"circuit,omitempty"`
	Format  string  `json:"format,omitempty"`
	Netlist string  `json:"netlist,omitempty"`
	Arch    string  `json:"arch,omitempty"`
	Device  string  `json:"device"`
	Fill    float64 `json:"fill,omitempty"`
	Method  string  `json:"method,omitempty"`
	// Resources appends extra resource caps to the device, e.g.
	// "DSP:12,BRAM:4".
	Resources string `json:"resources,omitempty"`
	// Board gates the result on a multi-FPGA board topology, e.g.
	// "mesh:4x4:wires=64".
	Board string `json:"board,omitempty"`
	// TimeoutMS bounds the run in milliseconds (0 = service default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// toRequest maps the wire form onto the service submission type.
func (a apiRequest) toRequest() Request {
	return Request{
		Circuit:   a.Circuit,
		Format:    a.Format,
		Netlist:   a.Netlist,
		Arch:      a.Arch,
		Device:    a.Device,
		Resources: a.Resources,
		Board:     a.Board,
		Fill:      a.Fill,
		Method:    a.Method,
		Timeout:   time.Duration(a.TimeoutMS) * time.Millisecond,
	}
}

// apiBatchRequest is the JSON body of POST /v1/batch: one submission
// fanned out across Devices (the embedded Device field is ignored).
type apiBatchRequest struct {
	apiRequest
	Devices []string `json:"devices"`
}

// JobView is the JSON rendering of a job.
type JobView struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Method    string `json:"method"`
	Device    string `json:"device"`
	Circuit   string `json:"circuit"`
	Key       string `json:"key"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Stolen and Thief report the job is (or was) out with a work thief.
	Stolen bool   `json:"stolen,omitempty"`
	Thief  string `json:"thief,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	ElapsedMS   int64  `json:"elapsed_ms,omitempty"`

	Error string `json:"error,omitempty"`

	// Result fields, present once State is "done".
	K        int             `json:"k,omitempty"`
	M        int             `json:"m,omitempty"`
	Feasible bool            `json:"feasible,omitempty"`
	Quality  *quality.Report `json:"quality,omitempty"`
	Stats    *obs.Stats      `json:"stats,omitempty"`
	// Board is the routing report when the job was board-gated and the
	// blocks fit the slots (absent otherwise).
	Board      *board.Report `json:"board,omitempty"`
	Assignment []int         `json:"assignment,omitempty"`
}

func viewOf(snap Snapshot, withAssignment bool) JobView {
	v := JobView{
		ID:          snap.ID,
		State:       snap.State,
		Method:      snap.Method,
		Device:      snap.Device,
		Circuit:     snap.Circuit,
		Key:         snap.Key,
		Cached:      snap.Cached,
		Coalesced:   snap.Coalesced,
		Stolen:      snap.Stolen,
		Thief:       snap.Thief,
		SubmittedAt: snap.Submitted.UTC().Format(time.RFC3339Nano),
	}
	if !snap.Started.IsZero() {
		v.StartedAt = snap.Started.UTC().Format(time.RFC3339Nano)
	}
	if !snap.Finished.IsZero() {
		v.FinishedAt = snap.Finished.UTC().Format(time.RFC3339Nano)
		v.ElapsedMS = snap.Finished.Sub(snap.Started).Milliseconds()
	}
	if snap.Err != nil {
		v.Error = snap.Err.Error()
	}
	if snap.State == StateDone && snap.Result != nil {
		v.K = snap.Result.K
		v.M = snap.Result.M
		v.Feasible = snap.Result.Feasible
		v.Quality = snap.Report
		v.Stats = snap.Result.Stats
		v.Board = snap.Result.Board
		if withAssignment {
			p := snap.Result.Partition
			h := p.Hypergraph()
			v.Assignment = make([]int, h.NumNodes())
			for i := range v.Assignment {
				v.Assignment[i] = int(p.Block(hypergraph.NodeID(i)))
			}
		}
	}
	return v
}

// MethodView is the JSON rendering of one method-table row in the
// GET /methods discovery response.
type MethodView struct {
	Name     string `json:"name"`
	Budgeted bool   `json:"budgeted"`
	Summary  string `json:"summary"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/partition          submit a job (202; 200 on a cache hit);
//	                              forwarded to its owning peer in a cluster
//	POST   /v1/batch              fan one circuit out across many devices
//	                              as a tracked job group
//	GET    /v1/jobs               list retained jobs
//	GET    /v1/jobs/{id}          job status (+ ?assignment=1 for the blocks)
//	DELETE /v1/jobs/{id}          cancel a live job
//	GET    /v1/jobs/{id}/events   stream the job's events (NDJSON, or SSE
//	                              when Accept includes text/event-stream)
//	GET    /v1/groups/{id}        batch group status
//	GET    /v1/groups/{id}/events merged NDJSON event stream of the group
//	POST   /v1/steal              hand one queued job to an idle peer
//	POST   /v1/internal/result    accept a stolen job's result envelope
//	GET    /methods               engine registry discovery (names + caps)
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness probe
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/partition", s.handleSubmit)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /methods", handleMethods)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/groups/{id}", s.handleGroup)
	mux.HandleFunc("GET /v1/groups/{id}/events", s.handleGroupEvents)
	mux.HandleFunc("POST /v1/steal", s.handleSteal)
	mux.HandleFunc("POST /v1/internal/result", s.handleStolenResult)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleMethods renders the engine's method table so clients can discover
// which method names Submit accepts and how the methods differ.
func handleMethods(w http.ResponseWriter, r *http.Request) {
	list := engine.List()
	views := make([]MethodView, len(list))
	for i, m := range list {
		views[i] = MethodView{Name: m.Name, Budgeted: m.Budgeted, Summary: m.Summary}
	}
	writeJSON(w, http.StatusOK, map[string]any{"methods": views})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// readBody drains one request body under the configured size cap,
// returning the raw bytes (a cluster forward re-sends them verbatim).
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		return nil, false
	}
	return raw, true
}

func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req apiRequest
	if err := decodeStrict(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	prep, err := s.prepare(req.toRequest())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Cluster routing: the fingerprint's ring owner handles the job so its
	// cache fills deterministically. A request already forwarded once runs
	// here no matter what — single-hop by construction — and an unreachable
	// owner degrades to local execution rather than an error.
	if n := s.clusterNode; n != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		if owner := n.Owner(prep.key); owner != n.Self() {
			resp, ferr := n.Forward(r.Context(), owner, r.Header.Get("Content-Type"), raw)
			if ferr == nil {
				defer resp.Body.Close()
				s.relay(w, resp, owner)
				return
			}
			n.FallbackObserved()
		}
	}
	if n := s.clusterNode; n != nil {
		w.Header().Set(cluster.PeerHeader, n.Self())
	}

	job, err := s.submitPrepared(prep)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap := s.Snapshot(job)
	status := http.StatusAccepted
	if snap.Cached {
		status = http.StatusOK // answered without queueing
	}
	writeJSON(w, status, viewOf(snap, false))
}

// relay proxies the owner peer's verbatim response to the client.
func (s *Service) relay(w http.ResponseWriter, resp *http.Response, owner string) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	peer := resp.Header.Get(cluster.PeerHeader)
	if peer == "" {
		peer = owner
	}
	w.Header().Set(cluster.PeerHeader, peer)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	snaps := s.Jobs()
	views := make([]JobView, len(snaps))
	for i, snap := range snaps {
		views[i] = viewOf(snap, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	withAssignment := r.URL.Query().Get("assignment") != ""
	writeJSON(w, http.StatusOK, viewOf(s.Snapshot(job), withAssignment))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	live := s.Cancel(job)
	writeJSON(w, http.StatusOK, map[string]any{"id": job.ID(), "canceled": live})
}

// handleEvents streams a job's event feed: the retained history first,
// then live events until the job completes or the client goes away.
// Output is NDJSON (one obs.Event per line) unless the client asks for
// text/event-stream, in which case each event rides an SSE data frame.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	enc := json.NewEncoder(w)
	write := func(e obs.Event) {
		if sse {
			fmt.Fprint(w, "data: ")
		}
		_ = enc.Encode(e)
		if sse {
			fmt.Fprint(w, "\n")
		}
	}

	sub := job.Events().Subscribe(eventBuffer)
	defer sub.Cancel()
	for _, e := range sub.History {
		write(e)
	}
	flush()
	for {
		select {
		case e, ok := <-sub.C():
			if !ok {
				return // stream complete: the job reached a terminal state
			}
			write(e)
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// GroupView is the JSON rendering of a batch job group.
type GroupView struct {
	ID      string    `json:"id"`
	Created string    `json:"created"`
	Jobs    []JobView `json:"jobs"`
	// Rejected maps device targets to their admission error.
	Rejected map[string]string `json:"rejected,omitempty"`
	// Complete reports that every admitted job is terminal.
	Complete bool `json:"complete"`
}

func (s *Service) groupView(g *Group) GroupView {
	snap := s.SnapshotGroup(g)
	v := GroupView{
		ID:       snap.ID,
		Created:  snap.Created.UTC().Format(time.RFC3339Nano),
		Jobs:     make([]JobView, len(snap.Jobs)),
		Rejected: snap.Rejected,
		Complete: snap.Complete,
	}
	for i, js := range snap.Jobs {
		v.Jobs[i] = viewOf(js, false)
	}
	return v
}

// handleBatch fans one submission out across many devices as a job group
// (202; 400 when no device at all was admitted).
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req apiBatchRequest
	if err := decodeStrict(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	g, err := s.SubmitBatch(req.toRequest(), req.Devices)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.groupView(g))
}

func (s *Service) handleGroup(w http.ResponseWriter, r *http.Request) {
	g, ok := s.Group(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown group %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.groupView(g))
}

// handleGroupEvents streams the merged event feeds of every admitted job
// in a group as NDJSON, each line tagging the event with its job and
// device. The stream ends when every member job's feed closes.
func (s *Service) handleGroupEvents(w http.ResponseWriter, r *http.Request) {
	g, ok := s.Group(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown group %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	type tagged struct {
		Job    string    `json:"job"`
		Device string    `json:"device"`
		Event  obs.Event `json:"event"`
	}
	ctx := r.Context()
	ch := make(chan tagged, 64)
	var wg sync.WaitGroup
	for _, it := range g.Items() {
		if it.Job == nil {
			continue
		}
		sub := it.Job.Events().Subscribe(eventBuffer)
		wg.Add(1)
		go func(id, dev string) {
			defer wg.Done()
			defer sub.Cancel()
			send := func(e obs.Event) bool {
				select {
				case ch <- tagged{Job: id, Device: dev, Event: e}:
					return true
				case <-ctx.Done():
					return false
				}
			}
			for _, e := range sub.History {
				if !send(e) {
					return
				}
			}
			for {
				select {
				case e, live := <-sub.C():
					if !live || !send(e) {
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}(it.Job.ID(), it.Device)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	enc := json.NewEncoder(w)
	for t := range ch {
		_ = enc.Encode(t)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleSteal hands one queued job to an idle peer (200 with the job
// spec, or 204 when nothing is stealable).
func (s *Service) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req struct {
		From string `json:"from"`
	}
	_ = json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req)
	if req.From == "" {
		req.From = r.RemoteAddr
	}
	job, ok := s.StealOne(req.From)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleStolenResult accepts a thief's result envelope for a stolen job.
// Stale pushes (the job was cancelled or requeued meanwhile) answer 200:
// the thief did nothing wrong and retrying cannot help.
func (s *Service) handleStolenResult(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		ID       string          `json:"id"`
		Envelope json.RawMessage `json:"envelope"`
	}
	if err := json.Unmarshal(raw, &req); err != nil || req.ID == "" {
		writeError(w, http.StatusBadRequest, errors.New("bad result push body"))
		return
	}
	if err := s.CompleteStolen(req.ID, req.Envelope); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
