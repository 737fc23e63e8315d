package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/engine"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

func pollDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if resp := getJSON(t, ts, "/v1/jobs/"+id, &v); resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: HTTP %d", resp.StatusCode)
		}
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobView{}
}

func TestHTTPSubmitPollEvents(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownClean(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/partition", apiRequest{
		Netlist: tinyPHG, Format: "phg", Device: "XC3020",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Key == "" {
		t.Fatalf("submit view missing id/key: %s", body)
	}

	final := pollDone(t, ts, v.ID)
	if final.State != StateDone || final.K < 1 || final.Quality == nil || final.Stats == nil {
		t.Fatalf("final view incomplete: %+v", final)
	}
	if final.Error != "" {
		t.Fatalf("unexpected error: %s", final.Error)
	}

	// The assignment is withheld by default and served on request.
	if final.Assignment != nil {
		t.Fatal("assignment should be opt-in")
	}
	var withAssign JobView
	getJSON(t, ts, "/v1/jobs/"+v.ID+"?assignment=1", &withAssign)
	if len(withAssign.Assignment) != 6 {
		t.Fatalf("assignment: want 6 entries, got %d", len(withAssign.Assignment))
	}

	// The completed job's event stream replays as NDJSON and terminates.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type: %s", ct)
	}
	var events []obs.Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) == 0 || events[0].Type != obs.RunStart || events[len(events)-1].Type != obs.RunEnd {
		t.Fatalf("event stream envelope wrong: %d events", len(events))
	}

	// Listing includes the job.
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("list: %+v", list)
	}
}

func TestHTTPLiveEventStreaming(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)

	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // never leave the stub blocked when a Fatal unwinds
	started := make(chan struct{})
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		em := obs.NewEmitter(opts.Sink, "test")
		em.Emit(obs.Event{Type: obs.RunStart})
		close(started)
		<-release
		em.Emit(obs.Event{Type: obs.RunEnd})
		return driver.RunOpts(context.Background(), method, h, dev, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: tinyPHG, Format: "phg", Device: "XC3020"})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	<-started

	// Attach mid-run: we must see the replayed RunStart live-followed by
	// the rest of the stream, then EOF when the job completes.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	sc := bufio.NewScanner(eresp.Body)
	if !sc.Scan() {
		t.Fatal("expected the replayed run-start before release")
	}
	var first obs.Event
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Type != obs.RunStart {
		t.Fatalf("first streamed event: %q (%v)", sc.Text(), err)
	}
	unblock()
	count := 1
	for sc.Scan() { // drains until the broadcast closes at job completion
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count < 2 {
		t.Fatalf("expected live events after release, got %d total", count)
	}
	pollDone(t, ts, v.ID)
}

func TestHTTPSSEFraming(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: tinyPHG, Format: "phg", Device: "XC3020"})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	pollDone(t, ts, v.ID)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type: %s", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	if !strings.HasPrefix(string(data), "data: ") {
		t.Fatalf("SSE framing missing: %q", string(data[:min(40, len(data))]))
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, MaxRequestBytes: 1 << 20})
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
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 400: malformed body, unknown fields, invalid request.
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: want 400, got %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/partition", map[string]any{"device": "XC3020", "bogus": 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: want 400, got %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/partition", apiRequest{Device: "XC3020"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request: want 400, got %d", resp.StatusCode)
	}

	// 400: unknown method, rejected at submit by engine.Lookup; the error
	// quotes the method table so the client sees what is valid.
	respM, bodyM := postJSON(t, ts, "/v1/partition", apiRequest{
		Netlist: uniquePHG(39), Format: "phg", Device: "XC3020", Method: "simulated-annealing",
	})
	if respM.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown method: want 400, got %d: %s", respM.StatusCode, bodyM)
	}
	for _, want := range []string{"simulated-annealing", "fpart", "kwayx", "multilevel"} {
		if !strings.Contains(string(bodyM), want) {
			t.Fatalf("unknown-method error should quote the method table (missing %q): %s", want, bodyM)
		}
	}

	// 404: unknown job.
	if resp := getJSON(t, ts, "/v1/jobs/job-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %d", resp.StatusCode)
	}

	// 413: oversized body.
	big := apiRequest{Netlist: strings.Repeat("#", 2<<20), Format: "phg", Device: "XC3020"}
	if resp, _ := postJSON(t, ts, "/v1/partition", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: want 413, got %d", resp.StatusCode)
	}

	// 429: occupy the worker, fill the queue slot, overflow.
	if resp, body := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: uniquePHG(40), Format: "phg", Device: "XC3020"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	<-started
	if resp, body := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: uniquePHG(41), Format: "phg", Device: "XC3020"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp.StatusCode, body)
	}
	resp429, body := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: uniquePHG(42), Format: "phg", Device: "XC3020"})
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: want 429, got %d: %s", resp429.StatusCode, body)
	}
	if resp429.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}
}

func TestHTTPCancel(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)

	started := make(chan struct{})
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: tinyPHG, Format: "phg", Device: "XC3020"})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	<-started

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: want 200, got %d", resp.StatusCode)
	}
	final := pollDone(t, ts, v.ID)
	if final.State != StateCanceled {
		t.Fatalf("cancelled job state: %s", final.State)
	}
}

func TestHTTPMetrics(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One miss, one hit.
	_, body := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: tinyPHG, Format: "phg", Device: "XC3020"})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	pollDone(t, ts, v.ID)
	if resp, _ := postJSON(t, ts, "/v1/partition", apiRequest{Netlist: tinyPHG, Format: "phg", Device: "XC3020"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit should answer 200, got %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"fpartd_queue_depth 0",
		"fpartd_workers 1",
		"fpartd_cache_hits_total 1",
		"fpartd_cache_misses_total 1",
		"fpartd_computations_total 1",
		"fpartd_cache_hit_rate 0.5000",
		`fpartd_phase_seconds_bucket{method="fpart",phase="improve",le="+Inf"} 1`,
		"fpartd_jobs_done_total 2",
		`fpartd_jobs_total{method="fpart",state="done"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}

	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("healthz should be 200")
	}
}

// TestHTTPMethods covers the method discovery endpoint: the listing
// mirrors engine.List() in order, row for row, and every advertised name
// is accepted at submit.
func TestHTTPMethods(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdownClean(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out struct {
		Methods []MethodView `json:"methods"`
	}
	if resp := getJSON(t, ts, "/methods", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/methods: want 200, got %d", resp.StatusCode)
	}
	want := engine.List()
	if len(out.Methods) != len(want) {
		t.Fatalf("want %d methods, got %+v", len(want), out.Methods)
	}
	for i, m := range out.Methods {
		w := want[i]
		if m.Name != w.Name || m.Budgeted != w.Budgeted || m.Summary != w.Summary || m.Summary == "" {
			t.Fatalf("method %d: want %s budgeted=%v %q, got %+v", i, w.Name, w.Budgeted, w.Summary, m)
		}
	}

	// Discovery is honest: every advertised method is accepted at submit.
	for _, m := range out.Methods {
		resp, body := postJSON(t, ts, "/v1/partition", apiRequest{
			Netlist: tinyPHG, Format: "phg", Device: "XC3020", Method: m.Name,
		})
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: %d %s", m.Name, resp.StatusCode, body)
		}
	}
}

// TestSubmitRefusesDeviceThatCannotRun: a fill that derates S_MAX to zero
// leaves a device no engine accepts. The request is a 400 at submit and
// never takes a queue slot or reaches a worker.
func TestSubmitRefusesDeviceThatCannotRun(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdownClean(t, s)
	var runs atomic.Int64
	s.run = func(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts driver.Options) (*driver.Result, error) {
		runs.Add(1)
		return driver.RunOpts(ctx, method, h, dev, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/partition", apiRequest{Circuit: "c3540", Device: "XC3020", Fill: 0.001})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "S_MAX") {
		t.Fatalf("fill 0.001: want 400 naming S_MAX, got %d: %s", resp.StatusCode, body)
	}
	if n := s.m.submitted.Load(); n != 0 {
		t.Fatalf("refused request was admitted: %d jobs submitted", n)
	}
	if runs.Load() != 0 {
		t.Fatal("refused request reached a worker")
	}
}
