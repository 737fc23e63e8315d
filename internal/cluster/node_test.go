package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func peerAddr(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestNewValidatesSelf(t *testing.T) {
	if _, err := New(Config{Self: "x:1", Peers: []string{"a:1", "b:1"}}); err == nil {
		t.Error("self outside the peer list accepted")
	}
	n, err := New(Config{Self: "a:1", Peers: []string{"a:1", "b:1", "c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Others(); len(got) != 2 || got[0] != "b:1" || got[1] != "c:1" {
		t.Errorf("Others() = %v", got)
	}
}

func TestForwardCarriesSingleHopHeader(t *testing.T) {
	var gotHeader, gotBody string
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(ForwardedHeader)
		b := make([]byte, 256)
		n, _ := r.Body.Read(b)
		gotBody = string(b[:n])
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-7"}`)
	}))
	defer owner.Close()

	self := "self:1"
	n, err := New(Config{Self: self, Peers: []string{self, peerAddr(owner)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Forward(context.Background(), peerAddr(owner), "application/json", []byte(`{"circuit":"s9234"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if gotHeader != self {
		t.Errorf("forwarded header = %q, want %q", gotHeader, self)
	}
	if gotBody != `{"circuit":"s9234"}` {
		t.Errorf("body = %q", gotBody)
	}
	if f, _, _, _ := n.Counters(); f != 1 {
		t.Errorf("forward counter = %d", f)
	}
}

func TestStealFromProtocol(t *testing.T) {
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer empty.Close()
	loaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req map[string]string
		json.NewDecoder(r.Body).Decode(&req)
		if req["from"] == "" {
			t.Error("steal request missing thief identity")
		}
		json.NewEncoder(w).Encode(StolenJob{
			ID:   "job-3",
			Key:  "deadbeef",
			Spec: JobSpec{Circuit: "s9234", Device: "XC3020", Method: "fpart"},
		})
	}))
	defer loaded.Close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer broken.Close()

	self := "self:1"
	n, err := New(Config{Self: self, Peers: []string{self, peerAddr(empty), peerAddr(loaded), peerAddr(broken)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, ok, err := n.StealFrom(ctx, peerAddr(empty)); ok || err != nil {
		t.Errorf("empty peer: ok=%v err=%v", ok, err)
	}
	job, ok, err := n.StealFrom(ctx, peerAddr(loaded))
	if err != nil || !ok {
		t.Fatalf("loaded peer: ok=%v err=%v", ok, err)
	}
	if job.ID != "job-3" || job.Spec.Circuit != "s9234" {
		t.Errorf("stolen job %+v", job)
	}
	if _, _, err := n.StealFrom(ctx, peerAddr(broken)); err == nil {
		t.Error("broken peer: want error")
	}
}

// TestStealLoopEndToEnd runs the full steal protocol against a fake
// victim: hand one job out, receive its result push, and stop handing
// out more once the source reports busy.
func TestStealLoopEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var pushedID string
	var pushedEnv []byte
	handed := false
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/steal":
			mu.Lock()
			defer mu.Unlock()
			if handed {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			handed = true
			json.NewEncoder(w).Encode(StolenJob{ID: "job-9", Spec: JobSpec{Circuit: "c1355", Device: "XC3020"}})
		case "/v1/internal/result":
			var req struct {
				ID       string          `json:"id"`
				Envelope json.RawMessage `json:"envelope"`
			}
			json.NewDecoder(r.Body).Decode(&req)
			mu.Lock()
			pushedID, pushedEnv = req.ID, req.Envelope
			mu.Unlock()
			w.WriteHeader(http.StatusOK)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer victim.Close()

	self := "self:1"
	n, err := New(Config{
		Self:          self,
		Peers:         []string{self, peerAddr(victim)},
		StealInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	src := &fakeSource{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		n.StealLoop(ctx, src)
		close(done)
	}()

	// The steal counter moves only after the push returned, so waiting on
	// it (not on the victim seeing the push) orders the checks below.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, steals, _ := n.Counters(); steals > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no result pushed back")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	if pushedID != "job-9" || string(pushedEnv) != `{"k":3}` {
		t.Errorf("push: id=%q env=%s", pushedID, pushedEnv)
	}
	mu.Unlock()
	if got := src.executed.Load(); got != 1 {
		t.Errorf("executed %d jobs, want 1", got)
	}
	if _, _, steals, _ := n.Counters(); steals != 1 {
		t.Errorf("steal counter = %d", steals)
	}

	// A busy source must not steal. A tick that read Idle() just before
	// busy was set may still ask the victim, so wait until the loop has
	// seen busy (its earlier ticks are then over, having found nothing to
	// steal) before the victim offers a job again.
	src.busy.Store(true)
	for src.busySeen.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("steal loop never checked the busy source")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	handed = false
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	if src.executed.Load() != 1 {
		t.Error("stole while busy")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("steal loop did not stop on cancel")
	}
}

type fakeSource struct {
	busy     atomic.Bool
	busySeen atomic.Int64 // Idle calls that found the source busy
	executed atomic.Int64
}

func (f *fakeSource) Idle() bool {
	if f.busy.Load() {
		f.busySeen.Add(1)
		return false
	}
	return true
}
func (f *fakeSource) Execute(ctx context.Context, job *StolenJob) ([]byte, error) {
	f.executed.Add(1)
	return []byte(`{"k":3}`), nil
}
