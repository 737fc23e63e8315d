package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// ForwardedHeader marks a request already forwarded once; a receiving
// peer executes it locally no matter what the ring says, so a stale or
// disagreeing ring can never bounce a request around the cluster. The
// value is the forwarding peer's advertise address (diagnostic only).
const ForwardedHeader = "X-Fpart-Forwarded"

// PeerHeader names the peer that actually handled a submission; the HTTP
// layer stamps it on every /v1/partition response so clients (and the
// smoke test) can see where a job landed.
const PeerHeader = "X-Fpart-Peer"

// JobSpec is the wire form of one partitioning request, used when a job
// crosses peers (steal handoff). It mirrors the public submit API body.
type JobSpec struct {
	Circuit   string  `json:"circuit,omitempty"`
	Format    string  `json:"format,omitempty"`
	Netlist   string  `json:"netlist,omitempty"`
	Arch      string  `json:"arch,omitempty"`
	Device    string  `json:"device"`
	Resources string  `json:"resources,omitempty"`
	Board     string  `json:"board,omitempty"`
	Fill      float64 `json:"fill,omitempty"`
	Method    string  `json:"method,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// StolenJob is one queued job handed from a victim to a thief: the
// victim-side job identity plus everything needed to run it elsewhere.
type StolenJob struct {
	// ID is the job's identifier on the victim; the thief echoes it when
	// pushing the result back.
	ID string `json:"id"`
	// Key is the victim's content-addressed fingerprint (diagnostic; the
	// thief recomputes its own from the spec).
	Key  string  `json:"key"`
	Spec JobSpec `json:"spec"`
}

// Source is what the steal loop needs from the local daemon. The service
// layer implements it.
type Source interface {
	// Idle reports whether this peer has spare capacity worth stealing
	// for (empty queue and a free worker).
	Idle() bool
	// Execute runs a stolen job locally and returns the serialized result
	// envelope to push back to the victim.
	Execute(ctx context.Context, job *StolenJob) ([]byte, error)
}

// peerClient makes the steal and result-push calls. Forwarded submissions
// use untimed requests bounded by the caller's context instead, since
// partitioning can outlast any fixed RTT budget.
var peerClient = &http.Client{Timeout: 10 * time.Second}

// Config describes this peer's place in the cluster.
type Config struct {
	// Self is this peer's advertise address; it must appear in Peers.
	Self string
	// Peers is the full static membership (including Self), identical on
	// every peer.
	Peers []string
	// Replicas is the virtual-node count per peer (0 = 64).
	Replicas int
	// StealInterval paces the steal loop (0 = 500ms).
	StealInterval time.Duration
}

// Node is one peer's view of the cluster: the ring plus the HTTP client
// machinery for forwarding, stealing, and result push-back, with the
// operational counters the /metrics endpoint exposes.
type Node struct {
	cfg  Config
	ring *Ring

	forwards         atomic.Int64
	forwardFallbacks atomic.Int64
	steals           atomic.Int64
	stealFailures    atomic.Int64
}

// New validates cfg and builds the node.
func New(cfg Config) (*Node, error) {
	ring, err := NewRing(cfg.Peers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	self := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			self = true
			break
		}
	}
	if !self {
		return nil, fmt.Errorf("cluster: advertise address %q not in peer list %v", cfg.Self, cfg.Peers)
	}
	if cfg.StealInterval <= 0 {
		cfg.StealInterval = 500 * time.Millisecond
	}
	return &Node{cfg: cfg, ring: ring}, nil
}

// Self returns this peer's advertise address.
func (n *Node) Self() string { return n.cfg.Self }

// Owner maps a fingerprint key to its owning peer.
func (n *Node) Owner(key string) string { return n.ring.Owner(key) }

// Others lists the peers other than self, in configuration order.
func (n *Node) Others() []string {
	out := make([]string, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p != n.cfg.Self {
			out = append(out, p)
		}
	}
	return out
}

// Forward re-sends a submission body to the owner peer, marked with the
// single-hop ForwardedHeader. The returned response is the owner's
// verbatim answer (the caller proxies it to the client); a transport
// error means the owner is unreachable and the caller should fall back
// to local execution (FallbackObserved records that choice).
func (n *Node) Forward(ctx context.Context, owner string, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+owner+"/v1/partition", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	// Deliberately not peerClient: a cache hit answers in microseconds
	// but a cold fpart run can take seconds, so the forward is bounded by
	// the caller's request context, not the peer-RPC timeout.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return nil, err
	}
	n.forwards.Add(1)
	return resp, nil
}

// FallbackObserved counts an owner-down local fallback.
func (n *Node) FallbackObserved() { n.forwardFallbacks.Add(1) }

// StealFrom asks one peer for a queued job. ok is false when the peer has
// nothing to give (HTTP 204) — not an error. A job without an ID is an
// error: its result could not be pushed back.
func (n *Node) StealFrom(ctx context.Context, peer string) (job *StolenJob, ok bool, err error) {
	body, _ := json.Marshal(map[string]string{"from": n.cfg.Self})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+peer+"/v1/steal", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := peerClient.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, false, nil
	case http.StatusOK:
		var sj StolenJob
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&sj); err != nil {
			return nil, false, fmt.Errorf("cluster: bad steal response from %s: %w", peer, err)
		}
		// The ID is what the result push names; without it the victim
		// refuses the push, so running the job would be wasted work.
		if sj.ID == "" {
			return nil, false, fmt.Errorf("cluster: steal response from %s carries no job id", peer)
		}
		return &sj, true, nil
	default:
		return nil, false, fmt.Errorf("cluster: steal from %s: HTTP %d", peer, resp.StatusCode)
	}
}

// PushResult returns a stolen job's serialized result envelope to its
// victim.
func (n *Node) PushResult(ctx context.Context, peer, id string, env []byte) error {
	body, err := json.Marshal(struct {
		ID       string          `json:"id"`
		Envelope json.RawMessage `json:"envelope"`
	}{ID: id, Envelope: env})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+peer+"/v1/internal/result", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := peerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: result push to %s: HTTP %d", peer, resp.StatusCode)
	}
	return nil
}

// StealLoop polls the other peers for work whenever src is idle, runs
// what it gets through src, and pushes results back — the idle half of
// the cluster's load balancing (the busy half is queue backpressure plus
// forwarding). It returns when ctx is cancelled. Run it in its own
// goroutine.
func (n *Node) StealLoop(ctx context.Context, src Source) {
	others := n.Others()
	if len(others) == 0 {
		return
	}
	ticker := time.NewTicker(n.cfg.StealInterval)
	defer ticker.Stop()
	next := 0 // round-robin so one busy peer is not the only victim
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if !src.Idle() {
			continue
		}
		for range others {
			peer := others[next%len(others)]
			next++
			job, ok, err := n.StealFrom(ctx, peer)
			if err != nil || !ok {
				continue // dead or idle peer; try the next one
			}
			env, err := src.Execute(ctx, job)
			if err != nil {
				// The victim's steal TTL requeues the job; nothing to push.
				n.stealFailures.Add(1)
				break
			}
			if err := n.PushResult(ctx, peer, job.ID, env); err != nil {
				n.stealFailures.Add(1)
				break
			}
			n.steals.Add(1)
			break // one job per tick keeps the loop fair under contention
		}
	}
}

// Counters snapshots the node's operational counters for /metrics.
func (n *Node) Counters() (forwards, forwardFallbacks, steals, stealFailures int64) {
	return n.forwards.Load(), n.forwardFallbacks.Load(), n.steals.Load(), n.stealFailures.Load()
}
