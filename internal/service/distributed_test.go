package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpart/internal/cluster"
	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/hypergraph"
	"fpart/internal/store"
)

// gateRuns replaces s.run with a gated real run: each run parks on the
// returned release channel (after signalling started) before executing.
func gateRuns(s *Service, depth int) (started chan struct{}, release chan struct{}) {
	started = make(chan struct{}, depth)
	release = make(chan struct{})
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return driver.RunOpts(context.Background(), method, h, dev, opts)
	}
	return started, release
}

// TestStorePersistsAcrossRestart is the tentpole acceptance criterion for
// the disk layer: a result computed by one service process is served as a
// cache hit by a fresh process sharing the data directory.
func TestStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	s1 := New(Config{Workers: 1, Store: st})
	job, err := s1.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	first := s1.Snapshot(job)
	if first.State != StateDone {
		t.Fatalf("job ended %s (%v)", first.State, first.Err)
	}
	shutdownClean(t, s1)

	// A new process over the same directory: the memory cache is cold, the
	// disk layer is not.
	st2, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Store: st2})
	defer shutdownClean(t, s2)

	job2, err := s2.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job2)
	snap := s2.Snapshot(job2)
	if snap.State != StateDone || !snap.Cached {
		t.Fatalf("restarted service should answer from disk: state=%s cached=%v", snap.State, snap.Cached)
	}
	if s2.m.storeHits.Load() != 1 || s2.m.computations.Load() != 0 {
		t.Fatalf("want 1 store hit and 0 computations, got %d/%d",
			s2.m.storeHits.Load(), s2.m.computations.Load())
	}
	// The rebuilt result matches the original run exactly.
	if snap.Result.K != first.Result.K || snap.Result.Feasible != first.Result.Feasible {
		t.Fatalf("rebuilt result diverged: k=%d/%d feasible=%v/%v",
			snap.Result.K, first.Result.K, snap.Result.Feasible, first.Result.Feasible)
	}
	if snap.Report.Cut != first.Report.Cut {
		t.Fatalf("rebuilt quality diverged: cut %v vs %v", snap.Report.Cut, first.Report.Cut)
	}
	// The replayed event stream is the original run's, closed.
	if len(job2.Events().Events()) != len(job.Events().Events()) {
		t.Fatal("replayed event history must match the original run")
	}
}

// TestStoreRetiredEventRecomputes: an envelope whose event stream names a
// retired event type (a daemon started with the removed -spec flag wrote
// "spec-win" events) no longer decodes. The service must count it as a
// decode error and recompute the job instead of failing it.
func TestStoreRetiredEventRecomputes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Store: st})
	job, err := s1.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	shutdownClean(t, s1)

	// Rewrite the stored envelope under the job's key with one event of
	// the retired type; everything else stays as the run wrote it.
	payload, ok := st.Get(job.Key())
	if !ok {
		t.Fatal("first run left nothing in the store")
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	env["events"] = json.RawMessage(`[{"type":"spec-win","iteration":1}]`)
	if payload, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(job.Key(), payload); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Store: st2})
	defer shutdownClean(t, s2)
	decodeErrors := func() string {
		var sb strings.Builder
		s2.WriteMetrics(&sb)
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "fpartd_store_decode_errors_total "); ok {
				return v
			}
		}
		t.Fatal("/metrics has no fpartd_store_decode_errors_total")
		return ""
	}
	if got := decodeErrors(); got != "0" {
		t.Fatalf("decode errors before the submit = %s, want 0", got)
	}
	job2, err := s2.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job2)
	snap := s2.Snapshot(job2)
	if snap.State != StateDone || snap.Cached {
		t.Fatalf("want a recomputed done job, got state=%s cached=%v (err %v)", snap.State, snap.Cached, snap.Err)
	}
	if got := decodeErrors(); got != "1" {
		t.Errorf("decode errors after the submit = %s, want 1", got)
	}
	if n := s2.m.computations.Load(); n != 1 {
		t.Errorf("computations = %d, want 1 (the job must recompute)", n)
	}
}

// TestDegradeUnderQueuePressure: once the queue passes the DegradeAt
// fill fraction, an expensive submission runs on a cheaper engine and
// records the original method in DegradedFrom.
func TestDegradeUnderQueuePressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, DegradeAt: 0.5})
	defer shutdownClean(t, s)
	started, release := gateRuns(s, 8)
	defer close(release)

	// Occupy the worker, then fill the queue to the degradation threshold
	// (0.5 * 4 = 2 queued jobs).
	if _, err := s.Submit(phgRequest(uniquePHG(1))); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 2; i <= 3; i++ {
		if _, err := s.Submit(phgRequest(uniquePHG(i))); err != nil {
			t.Fatal(err)
		}
	}

	// tinyPHG is structurally distinct from every queued uniquePHG, so this
	// submission can neither cache-hit nor coalesce — it must queue or
	// degrade.
	job, err := s.Submit(Request{Format: "phg", Netlist: tinyPHG, Device: "XC3020", Method: "fpart"})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot(job)
	if snap.DegradedFrom != "fpart" {
		t.Fatalf("want degradation from fpart, got %q (method %q)", snap.DegradedFrom, snap.Method)
	}
	if snap.Method == "fpart" {
		t.Fatal("degraded job must run a cheaper engine")
	}
	if s.m.degraded.Load() != 1 {
		t.Fatalf("degraded counter: want 1, got %d", s.m.degraded.Load())
	}

	// Below the threshold nothing degrades.
	s2 := New(Config{Workers: 2, QueueDepth: 64})
	defer shutdownClean(t, s2)
	j2, err := s2.Submit(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	if snap := s2.Snapshot(j2); snap.DegradedFrom != "" {
		t.Fatalf("unloaded service degraded a job to %q", snap.Method)
	}

	// DegradeAt < 0 disables the ladder even under pressure.
	s3 := New(Config{Workers: 1, QueueDepth: 1, DegradeAt: -1})
	defer shutdownClean(t, s3)
	started3, release3 := gateRuns(s3, 4)
	defer close(release3)
	if _, err := s3.Submit(phgRequest(uniquePHG(10))); err != nil {
		t.Fatal(err)
	}
	<-started3
	if _, err := s3.Submit(phgRequest(uniquePHG(11))); err != nil {
		t.Fatal(err)
	}
	j3, err := s3.Submit(Request{Format: "phg", Netlist: uniquePHG(12), Device: "XC3020", Method: "fpart"})
	if err == nil {
		if snap := s3.Snapshot(j3); snap.DegradedFrom != "" {
			t.Fatal("DegradeAt<0 must disable degradation")
		}
	}
}

// TestStealLifecycle walks the whole work-stealing handshake at the API
// level: victim hands its oldest queued job out, a thief service executes
// it through its own pipeline, and the pushed envelope completes the
// victim's job with a full result.
func TestStealLifecycle(t *testing.T) {
	victim := New(Config{Workers: 1, QueueDepth: 4, StealTTL: time.Minute})
	defer shutdownClean(t, victim)
	started, release := gateRuns(victim, 4)
	defer close(release)

	if _, err := victim.Submit(phgRequest(uniquePHG(1))); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := victim.Submit(phgRequest(uniquePHG(2)))
	if err != nil {
		t.Fatal(err)
	}

	sj, ok := victim.StealOne("thief-1")
	if !ok {
		t.Fatal("a queued job must be stealable")
	}
	if sj.ID != queued.ID() || sj.Spec.Netlist != uniquePHG(2) || sj.Spec.Device != "XC3020" {
		t.Fatalf("stolen spec mismatch: %+v", sj)
	}
	snap := victim.Snapshot(queued)
	if snap.State != StateRunning || !snap.Stolen || snap.Thief != "thief-1" {
		t.Fatalf("stolen job state: %+v", snap)
	}
	if _, ok := victim.StealOne("thief-2"); ok {
		t.Fatal("nothing else is queued; second steal must miss")
	}

	thief := New(Config{Workers: 1})
	defer shutdownClean(t, thief)
	env, err := thief.Execute(context.Background(), sj)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.CompleteStolen(sj.ID, env); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, queued)
	snap = victim.Snapshot(queued)
	if snap.State != StateDone || snap.Result == nil || snap.Report == nil {
		t.Fatalf("stolen job must complete with a result: %+v", snap)
	}
	if victim.m.stolenCompleted.Load() != 1 || victim.m.computations.Load() != 0 {
		t.Fatalf("victim counters: completed=%d computations=%d",
			victim.m.stolenCompleted.Load(), victim.m.computations.Load())
	}
	// A duplicate (stale) push is dropped without error.
	if err := victim.CompleteStolen(sj.ID, env); err != nil {
		t.Fatalf("stale push must be tolerated: %v", err)
	}
}

// TestStolenJobKeepsItsMethod: a thief whose own queue is past DegradeAt
// still runs a stolen job with the method the victim admitted, and the
// victim refuses an envelope that ran any other method — it would cache
// and persist that partition under the job's key.
func TestStolenJobKeepsItsMethod(t *testing.T) {
	victim := New(Config{Workers: 1, QueueDepth: 4, StealTTL: time.Minute})
	defer shutdownClean(t, victim)
	vstarted, vrelease := gateRuns(victim, 4)
	defer close(vrelease)
	if _, err := victim.Submit(phgRequest(uniquePHG(1))); err != nil {
		t.Fatal(err)
	}
	<-vstarted
	queued, err := victim.Submit(Request{Format: "phg", Netlist: tinyPHG, Device: "XC3020", Method: "fpart"})
	if err != nil {
		t.Fatal(err)
	}
	sj, ok := victim.StealOne("thief")
	if !ok || sj.Spec.Method != "fpart" {
		t.Fatalf("steal: ok=%v spec=%+v", ok, sj)
	}

	// Load the thief past its degradation threshold (0.5 * 4 = 2 queued).
	thief := New(Config{Workers: 1, QueueDepth: 4, DegradeAt: 0.5})
	defer shutdownClean(t, thief)
	tstarted, trelease := gateRuns(thief, 8)
	if _, err := thief.Submit(phgRequest(uniquePHG(2))); err != nil {
		t.Fatal(err)
	}
	<-tstarted
	for i := 3; i <= 4; i++ {
		if _, err := thief.Submit(phgRequest(uniquePHG(i))); err != nil {
			t.Fatal(err)
		}
	}
	type outcome struct {
		env []byte
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		env, err := thief.Execute(context.Background(), sj)
		done <- outcome{env, err}
	}()
	// Hold the thief's worker until the stolen job is admitted behind the
	// two queued ones, so admission sees the full pressure.
	for deadline := time.Now().Add(5 * time.Second); len(thief.queue) < 3; {
		if time.Now().After(deadline) {
			t.Fatal("stolen job never queued on the thief")
		}
		time.Sleep(time.Millisecond)
	}
	close(trelease)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if n := thief.m.degraded.Load(); n != 0 {
		t.Errorf("thief degraded %d jobs; a stolen job must run as given", n)
	}
	var sr storedResult
	if err := json.Unmarshal(out.env, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Method != "fpart" {
		t.Fatalf("stolen fpart job ran %q", sr.Method)
	}

	// An envelope that ran another method is rejected and leaves the job
	// stolen; the matching envelope then completes it.
	sr.Method = "kwayx"
	wrong, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.CompleteStolen(sj.ID, wrong); err == nil {
		t.Fatal("CompleteStolen accepted a kwayx envelope for an fpart job")
	}
	if snap := victim.Snapshot(queued); snap.State != StateRunning || !snap.Stolen {
		t.Fatalf("rejected push changed the job: %+v", snap)
	}
	if err := victim.CompleteStolen(sj.ID, out.env); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, queued)
	if snap := victim.Snapshot(queued); snap.State != StateDone || snap.Method != "fpart" {
		t.Fatalf("stolen job: state=%s method=%s", snap.State, snap.Method)
	}
}

// TestStealTTLRequeue: when the thief never pushes a result, the victim
// requeues the job locally and finishes it itself.
func TestStealTTLRequeue(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, StealTTL: 50 * time.Millisecond})
	defer shutdownClean(t, s)
	started, release := gateRuns(s, 4)

	if _, err := s.Submit(phgRequest(uniquePHG(1))); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(phgRequest(uniquePHG(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.StealOne("vanishing-thief"); !ok {
		t.Fatal("steal must succeed")
	}

	deadline := time.After(5 * time.Second)
	for s.m.stealRequeued.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("stolen job was never requeued")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(release)
	waitTerminal(t, queued)
	if snap := s.Snapshot(queued); snap.State != StateDone {
		t.Fatalf("requeued job ended %s (%v)", snap.State, snap.Err)
	}
}

// TestBatchGroup fans one circuit across devices, tracking per-device
// admission errors and group completion.
func TestBatchGroup(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownClean(t, s)

	g, err := s.SubmitBatch(Request{Format: "phg", Netlist: tinyPHG},
		[]string{"XC3020", "XC3042", "no-such-part"})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range g.Items() {
		if it.Job != nil {
			waitTerminal(t, it.Job)
		}
	}
	got, ok := s.Group(g.ID())
	if !ok || got != g {
		t.Fatal("group must be queryable by ID")
	}
	snap := s.SnapshotGroup(g)
	if len(snap.Jobs) != 2 || len(snap.Rejected) != 1 || !snap.Complete {
		t.Fatalf("group snapshot: %d jobs, %d rejected, complete=%v",
			len(snap.Jobs), len(snap.Rejected), snap.Complete)
	}
	if _, bad := snap.Rejected["no-such-part"]; !bad {
		t.Fatal("the unknown device must be recorded as rejected")
	}
	for _, js := range snap.Jobs {
		if js.State != StateDone {
			t.Fatalf("group job %s ended %s", js.ID, js.State)
		}
	}

	// All-rejected batches fail outright; so do empty and oversized ones.
	if _, err := s.SubmitBatch(Request{Format: "phg", Netlist: tinyPHG}, []string{"bogus"}); err == nil {
		t.Fatal("all-rejected batch must error")
	}
	if _, err := s.SubmitBatch(Request{Format: "phg", Netlist: tinyPHG}, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	many := make([]string, MaxBatchDevices+1)
	for i := range many {
		many[i] = "XC3020"
	}
	if _, err := s.SubmitBatch(Request{Format: "phg", Netlist: tinyPHG}, many); err == nil {
		t.Fatal("oversized batch must error")
	}
}

// TestHTTPBatchAndGroups drives the batch fan-out through the HTTP API:
// submit, poll the group, and drain its merged event stream.
func TestHTTPBatchAndGroups(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownClean(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"format":"phg","netlist":%q,"devices":["XC3020","XC3042"]}`, tinyPHG)
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var gv GroupView
	if err := json.NewDecoder(resp.Body).Decode(&gv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(gv.Jobs) != 2 {
		t.Fatalf("batch submit: HTTP %d, %d jobs", resp.StatusCode, len(gv.Jobs))
	}

	// The merged event stream ends once both jobs are terminal, each line
	// tagged with its job and device.
	resp, err = http.Get(srv.URL + "/v1/groups/" + gv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	devices := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Job    string          `json:"job"`
			Device string          `json:"device"`
			Event  json.RawMessage `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Job == "" || line.Device == "" || len(line.Event) == 0 {
			t.Fatalf("untagged event line: %q", sc.Text())
		}
		devices[line.Device] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !devices["XC3020"] || !devices["XC3042"] {
		t.Fatalf("event stream missing a device: %v", devices)
	}

	// Group status is queryable and eventually complete.
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/groups/" + gv.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got GroupView
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.Complete {
			for _, jv := range got.Jobs {
				if jv.State != StateDone {
					t.Fatalf("group job %s ended %s", jv.ID, jv.State)
				}
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("group never completed")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/groups/grp-999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown group must 404, got %v %v", resp.StatusCode, err)
	}
}

// clusterPair starts two HTTP services joined into one two-peer cluster
// and returns them with their advertise addresses.
func clusterPair(t *testing.T) (sA, sB *Service, addrA, addrB string) {
	t.Helper()
	sA = New(Config{Workers: 1})
	sB = New(Config{Workers: 1})
	srvA := httptest.NewServer(sA.Handler())
	srvB := httptest.NewServer(sB.Handler())
	t.Cleanup(func() {
		srvA.Close()
		srvB.Close()
		shutdownClean(t, sA)
		shutdownClean(t, sB)
	})
	addrA = strings.TrimPrefix(srvA.URL, "http://")
	addrB = strings.TrimPrefix(srvB.URL, "http://")
	peers := []string{addrA, addrB}
	nA, err := cluster.New(cluster.Config{Self: addrA, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	nB, err := cluster.New(cluster.Config{Self: addrB, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	sA.SetCluster(nA)
	sB.SetCluster(nB)
	return sA, sB, addrA, addrB
}

// TestHTTPForwardToOwner: a submission POSTed to the non-owning peer is
// forwarded to the ring owner, executes there, and the owner's cache
// serves the resubmission — the tentpole's routing acceptance criterion.
func TestHTTPForwardToOwner(t *testing.T) {
	sA, sB, addrA, addrB := clusterPair(t)

	prep, err := sA.prepare(phgRequest(tinyPHG))
	if err != nil {
		t.Fatal(err)
	}
	owner := sA.Cluster().Owner(prep.key)
	if owner != sB.Cluster().Owner(prep.key) {
		t.Fatal("peers disagree on ring ownership")
	}
	nonOwner := addrA
	ownerSvc, otherSvc := sB, sA
	if owner == addrA {
		nonOwner = addrB
		ownerSvc, otherSvc = sA, sB
	}

	body := fmt.Sprintf(`{"format":"phg","netlist":%q,"device":"XC3020"}`, tinyPHG)
	resp, err := http.Post("http://"+nonOwner+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(cluster.PeerHeader); got != owner {
		t.Fatalf("handled by %q, want owner %q", got, owner)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded submit: HTTP %d", resp.StatusCode)
	}
	// The job lives on the owner, not on the receiving peer.
	if _, ok := ownerSvc.Job(jv.ID); !ok {
		t.Fatal("owner must hold the forwarded job")
	}
	if _, ok := otherSvc.Job(jv.ID); ok {
		t.Fatal("non-owner must not duplicate the job")
	}
	job, _ := ownerSvc.Job(jv.ID)
	waitTerminal(t, job)

	// Resubmitting anywhere now answers from the owner's cache (HTTP 200).
	resp, err = http.Post("http://"+nonOwner+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !jv.Cached {
		t.Fatalf("resubmit: HTTP %d cached=%v, want owner cache hit", resp.StatusCode, jv.Cached)
	}
	forwards, _, _, _ := otherSvc.Cluster().Counters()
	if forwards != 2 {
		t.Fatalf("forward counter: want 2, got %d", forwards)
	}
}

// TestHTTPForwardFallback: when the ring owner is unreachable, the
// receiving peer runs the job locally instead of failing the request.
func TestHTTPForwardFallback(t *testing.T) {
	sA := New(Config{Workers: 1})
	defer shutdownClean(t, sA)
	srvA := httptest.NewServer(sA.Handler())
	defer srvA.Close()
	addrA := strings.TrimPrefix(srvA.URL, "http://")

	// Peer B is listed in the membership but never started: whenever the
	// ring routes there, the forward must fall back to local execution.
	deadPeer := "127.0.0.1:1" // reserved port; connections fail fast
	nA, err := cluster.New(cluster.Config{Self: addrA, Peers: []string{addrA, deadPeer}})
	if err != nil {
		t.Fatal(err)
	}
	sA.SetCluster(nA)

	// Find a request the dead peer owns (the fill ratio is part of the
	// fingerprint, so sweeping it yields distinct keys).
	body := ""
	for i := 0; i < 64; i++ {
		fill := 0.5 + float64(i)/128
		req := phgRequest(tinyPHG)
		req.Fill = fill
		prep, err := sA.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		if nA.Owner(prep.key) == deadPeer {
			body = fmt.Sprintf(`{"format":"phg","netlist":%q,"device":"XC3020","fill":%g}`, tinyPHG, fill)
			break
		}
	}
	if body == "" {
		t.Fatal("no key routed to the dead peer; ring is suspiciously unbalanced")
	}

	resp, err := http.Post(srvA.URL+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(cluster.PeerHeader); got != addrA {
		t.Fatalf("fallback must be served locally by %q, got %q", addrA, got)
	}
	job, ok := sA.Job(jv.ID)
	if !ok {
		t.Fatal("fallback job must exist locally")
	}
	waitTerminal(t, job)
	if snap := sA.Snapshot(job); snap.State != StateDone {
		t.Fatalf("fallback job ended %s (%v)", snap.State, snap.Err)
	}
	_, fallbacks, _, _ := nA.Counters()
	if fallbacks != 1 {
		t.Fatalf("fallback counter: want 1, got %d", fallbacks)
	}
}

// TestHTTPStealEndpoints exercises the steal wire protocol over real
// HTTP: 204 when idle, a job spec when loaded, and result push-back.
func TestHTTPStealEndpoints(t *testing.T) {
	victim := New(Config{Workers: 1, QueueDepth: 4, StealTTL: time.Minute})
	defer shutdownClean(t, victim)
	started, release := gateRuns(victim, 4)
	defer close(release)
	srv := httptest.NewServer(victim.Handler())
	defer srv.Close()

	// Idle victim: nothing to steal.
	resp, err := http.Post(srv.URL+"/v1/steal", "application/json", strings.NewReader(`{"from":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle steal: HTTP %d, want 204", resp.StatusCode)
	}

	// Load the victim: one running, one queued.
	if _, err := victim.Submit(phgRequest(uniquePHG(1))); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := victim.Submit(phgRequest(uniquePHG(2)))
	if err != nil {
		t.Fatal(err)
	}

	thiefNode, err := cluster.New(cluster.Config{
		Self:  "thief:0",
		Peers: []string{"thief:0", strings.TrimPrefix(srv.URL, "http://")},
	})
	if err != nil {
		t.Fatal(err)
	}
	sj, ok, err := thiefNode.StealFrom(context.Background(), strings.TrimPrefix(srv.URL, "http://"))
	if err != nil || !ok {
		t.Fatalf("steal over HTTP: ok=%v err=%v", ok, err)
	}
	if sj.ID != queued.ID() {
		t.Fatalf("stole %s, want %s", sj.ID, queued.ID())
	}

	thief := New(Config{Workers: 1})
	defer shutdownClean(t, thief)
	env, err := thief.Execute(context.Background(), sj)
	if err != nil {
		t.Fatal(err)
	}
	if err := thiefNode.PushResult(context.Background(), strings.TrimPrefix(srv.URL, "http://"), sj.ID, env); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, queued)
	if snap := victim.Snapshot(queued); snap.State != StateDone || snap.Result == nil {
		t.Fatalf("pushed result must complete the job: %+v", snap)
	}

	// A push for an unknown job is a client error.
	bad, _ := json.Marshal(map[string]any{"id": "job-999999", "envelope": json.RawMessage(env)})
	resp, err = http.Post(srv.URL+"/v1/internal/result", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-job push: HTTP %d, want 400", resp.StatusCode)
	}
}
