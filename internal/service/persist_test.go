package service

// Tests and the fuzz target for the stored-result envelope: the payload
// the disk store files and a work thief pushes over
// POST /v1/internal/result. Run the fuzz seeds as a regular test, or
// explore with `go test -fuzz FuzzDecodeStored ./internal/service`.

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/engine"
	"fpart/internal/hypergraph"
	"fpart/internal/mlfpart"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// storedFor runs req's method on its circuit and returns the prepared
// submission with the encoded envelope of the result and its event stream.
func storedFor(t testing.TB, req Request) (*prepared, []byte) {
	t.Helper()
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	prep, err := s.prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	var events obs.Collector
	res, err := driver.RunOpts(context.Background(), prep.method, prep.circuit.Hypergraph, prep.dev, driver.Options{Sink: &events})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeStored(prep.circuit.Name, prep.method, res, events.Events())
	if err != nil {
		t.Fatal(err)
	}
	return prep, payload
}

// TestDecodeStoredKeepsResources: a job's device carries the resource
// caps of its request's "resources" field, which the envelope's device
// name does not. The rebuilt partition must judge against the job's
// device, caps included, so its fingerprint matches the job's key.
func TestDecodeStoredKeepsResources(t *testing.T) {
	prep, payload := storedFor(t, Request{
		Format: "blif", Netlist: pipelineBLIF(32, 32), Device: "XC3042", Resources: "FF:8",
	})
	h := prep.circuit.Hypergraph
	res, _, err := decodeStored(payload, h, prep.dev)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Partition.Device()
	if !reflect.DeepEqual(got, prep.dev) {
		t.Fatalf("decoded device %v with resources %v, want %v with %v", got, got.Resources, prep.dev, prep.dev.Resources)
	}
	if key := Fingerprint(h, got, prep.method, ""); key != prep.key {
		t.Fatalf("decoded device fingerprints as %s, want the job key %s", key, prep.key)
	}
	if res.M != 4 {
		t.Fatalf("M = %d, want 4 (32 flip-flops at FF:8)", res.M)
	}

	// An envelope for another device or fill than the job's is refused.
	for _, dev := range []device.Device{device.XC3020, prep.dev.WithFill(0.5)} {
		if _, _, err := decodeStored(payload, h, dev); err == nil {
			t.Errorf("envelope for %s accepted for a job on %s", prep.dev, dev)
		}
	}
}

// TestDecodeStoredKeepsEmptyBlocks: block ids are never compacted, so a
// finished partition can hold empty blocks below its highest id —
// absorption on c7552/XC2064 empties the remainder block 0. Its envelope
// must decode to the same partition, not be refused for a highest id at
// or past the non-empty count K.
func TestDecodeStoredKeepsEmptyBlocks(t *testing.T) {
	prep, payload := storedFor(t, Request{Circuit: "c7552", Device: "XC2064"})
	h := prep.circuit.Hypergraph
	res, sr, err := decodeStored(payload, h, prep.dev)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition
	if p.Nodes(0) != 0 || p.NumBlocks() <= sr.K {
		t.Fatalf("fixture lost its empty block: %d blocks, K = %d, block 0 holds %d nodes", p.NumBlocks(), sr.K, p.Nodes(0))
	}
	for v := 0; v < h.NumNodes(); v++ {
		if got, want := p.Block(hypergraph.NodeID(v)), partition.BlockID(sr.Assignment[v]); got != want {
			t.Fatalf("node %d decoded into block %d, want %d", v, got, want)
		}
	}
}

// TestDecodeStoredRejectsBlockOutOfRange: the block count sizes a
// nets × blocks pin-count slab, so an envelope must not be able to pick
// it. A block id at or past device.BlockCap of the job's lower bound —
// including n−1 on a circuit whose cap is far below n — is refused before
// anything is allocated.
func TestDecodeStoredRejectsBlockOutOfRange(t *testing.T) {
	prep, payload := storedFor(t, Request{Circuit: "c7552", Device: "XC2064"})
	h := prep.circuit.Hypergraph
	limit := device.BlockCap(device.LowerBound(h, prep.dev))
	if n := h.NumNodes(); n < 10*limit {
		t.Fatalf("fixture has %d nodes against a %d-block cap; want a cap far below n", n, limit)
	}
	var sr storedResult
	if err := json.Unmarshal(payload, &sr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		block int32
	}{
		{"block at the cap", int32(limit)},
		{"block n-1", int32(h.NumNodes() - 1)},
		{"negative block", -1},
	} {
		bad := sr
		bad.Assignment = append([]int32(nil), sr.Assignment...)
		bad.Assignment[0] = tc.block
		raw, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeStored(raw, h, prep.dev); err == nil || !strings.Contains(err.Error(), "block") {
			t.Errorf("%s: want a rejection naming the block, got %v", tc.name, err)
		}
	}
}

// tampered re-encodes the envelope payload after edit.
func tampered(t testing.TB, payload []byte, edit func(*storedResult)) []byte {
	t.Helper()
	var sr storedResult
	if err := json.Unmarshal(payload, &sr); err != nil {
		t.Fatal(err)
	}
	edit(&sr)
	raw, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// oneFeasibleDevice claims that the whole circuit fits one device: every
// node in block 0, k=1, m=1, feasible.
func oneFeasibleDevice(sr *storedResult) {
	for i := range sr.Assignment {
		sr.Assignment[i] = 0
	}
	sr.K, sr.M, sr.Feasible = 1, 1, true
}

// TestDecodeStoredChecksClaims: an envelope's k, m and feasible are
// checked against the partition its assignment rebuilds. A c3540/XC3020
// envelope that puts every node in one block and claims a feasible
// one-device answer is refused, as are a k or m off by one and a feasible
// claim on an infeasible partition; feasible=false on a feasible
// partition (the board gate's demotion) is kept.
func TestDecodeStoredChecksClaims(t *testing.T) {
	prep, payload := storedFor(t, Request{Circuit: "c3540", Device: "XC3020"})
	h := prep.circuit.Hypergraph
	res, _, err := decodeStored(payload, h, prep.dev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.K < 2 {
		t.Fatalf("fixture is not a feasible multi-device answer: K=%d feasible=%v", res.K, res.Feasible)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*storedResult)
	}{
		{"one feasible device", "claims", oneFeasibleDevice},
		{"one device at the true m", "claims feasible", func(sr *storedResult) {
			m := sr.M
			oneFeasibleDevice(sr)
			sr.M = m
		}},
		{"k off by one", "claims k=", func(sr *storedResult) { sr.K++ }},
		{"m off by one", "claims k=", func(sr *storedResult) { sr.M-- }},
	} {
		_, _, err := decodeStored(tampered(t, payload, tc.edit), h, prep.dev)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want a refusal naming %q, got %v", tc.name, tc.want, err)
		}
	}
	demoted, _, err := decodeStored(tampered(t, payload, func(sr *storedResult) { sr.Feasible = false }), h, prep.dev)
	if err != nil {
		t.Fatalf("feasible=false on a feasible partition refused: %v", err)
	}
	if demoted.Feasible || demoted.K != res.K || demoted.M != res.M {
		t.Fatalf("demoted envelope decoded as K=%d M=%d feasible=%v", demoted.K, demoted.M, demoted.Feasible)
	}
}

// onlyRunEnd replaces the event stream with one run-end claiming a
// feasible one-device answer and drops the counters, leaving k, m and the
// assignment true.
func onlyRunEnd(sr *storedResult) {
	sr.Events = []obs.Event{{Type: obs.RunEnd, K: 1, M: 1, Feasible: true}}
	sr.Stats = nil
}

// TestDecodeStoredChecksRunEnds: the replayed event stream is a claim
// like k and m. On a c3540/XC3020 envelope, a stream whose only event is
// a feasible one-device run-end is refused, as are a run-end at another
// m, a stream with no run-end at the rebuilt k, and a feasible run-end
// with fewer blocks than the assignment.
func TestDecodeStoredChecksRunEnds(t *testing.T) {
	prep, payload := storedFor(t, Request{Circuit: "c3540", Device: "XC3020"})
	h := prep.circuit.Hypergraph
	res, _, err := decodeStored(payload, h, prep.dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 {
		t.Fatalf("fixture is not a multi-device answer: K=%d", res.K)
	}
	eachRunEnd := func(edit func(*obs.Event)) func(*storedResult) {
		return func(sr *storedResult) {
			for i := range sr.Events {
				if sr.Events[i].Type == obs.RunEnd {
					edit(&sr.Events[i])
				}
			}
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*storedResult)
	}{
		{"only a one-device run-end", "m=1", onlyRunEnd},
		{"run-end at another m", "lower bound", eachRunEnd(func(e *obs.Event) { e.M++ })},
		{"no run-end at k", "no run", eachRunEnd(func(e *obs.Event) { e.K++ })},
		{"feasible below k", "feasible", func(sr *storedResult) {
			sr.Events = append(sr.Events, obs.Event{Type: obs.RunEnd, K: sr.K - 1, M: sr.M, Feasible: true})
		}},
	} {
		_, _, err := decodeStored(tampered(t, payload, tc.edit), h, prep.dev)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want a refusal naming %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestDecodeStoredAcceptsEveryMethod: the run-end rules hold for honest
// streams. A real run of every registered method on c3540 and s9234 /
// XC3020, and of mlfpart with its V-cycle forced, survives an
// encode→decode round trip with its events.
func TestDecodeStoredAcceptsEveryMethod(t *testing.T) {
	for _, method := range engine.Names() {
		for _, circuit := range []string{"c3540", "s9234"} {
			prep, payload := storedFor(t, Request{Circuit: circuit, Device: "XC3020", Method: method})
			_, sr, err := decodeStored(payload, prep.circuit.Hypergraph, prep.dev)
			if err != nil {
				t.Errorf("%s on %s: %v", method, circuit, err)
				continue
			}
			if len(sr.Events) == 0 {
				t.Errorf("%s on %s: envelope carries no events", method, circuit)
			}
		}
	}

	// mlfpart's V-cycle, forced on a small circuit, adds the coarse
	// peel's run-end to the stream.
	prep, err := New(Config{Workers: 1}).prepare(Request{Circuit: "c3540", Device: "XC3020", Method: "mlfpart"})
	if err != nil {
		t.Fatal(err)
	}
	h := prep.circuit.Hypergraph
	var events obs.Collector
	r, err := mlfpart.PartitionCtx(context.Background(), h, prep.dev, mlfpart.Config{FlatThreshold: -1, Sink: &events})
	if err != nil {
		t.Fatal(err)
	}
	if n := events.Count(obs.RunEnd); n < 2 {
		t.Fatalf("forced V-cycle ended %d runs; want the coarse peel's run-end too", n)
	}
	res := &driver.Result{Partition: r.Partition, K: r.K, M: r.M, Feasible: r.Feasible, Elapsed: r.Elapsed}
	payload, err := encodeStored(prep.circuit.Name, prep.method, res, events.Events())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeStored(payload, h, prep.dev); err != nil {
		t.Errorf("mlfpart with a forced V-cycle: %v", err)
	}
}

// FuzzDecodeStored: arbitrary envelopes must never panic the decoder. An
// envelope accepted for either circuit must rebuild a partition on the
// job's own device with every block id in [0, blocks), blocks within
// device.BlockCap of the job's lower bound, K its non-empty block count,
// M the lower bound, a feasible claim only on a feasible partition, and
// an event stream that is empty or meets checkRunEnds' rules.
func FuzzDecodeStored(f *testing.F) {
	type target struct {
		h   *hypergraph.Hypergraph
		dev device.Device
	}
	var targets []target
	var valid [][]byte
	for _, req := range []Request{phgRequest(tinyPHG), {Circuit: "c3540", Device: "XC3020"}} {
		prep, payload := storedFor(f, req)
		targets = append(targets, target{prep.circuit.Hypergraph, prep.dev})
		valid = append(valid, payload)
		f.Add(payload)
	}
	for _, edit := range []func(*storedResult){
		func(sr *storedResult) { sr.Device = "XC3042" },
		func(sr *storedResult) { sr.Fill = 0.5 },
		func(sr *storedResult) { sr.Assignment[0] = 1 << 16 },
		func(sr *storedResult) {
			for i := range sr.Assignment {
				sr.Assignment[i]++
			}
		},
		func(sr *storedResult) { sr.Assignment = sr.Assignment[1:] },
		func(sr *storedResult) { sr.K, sr.Feasible = 2, true },
	} {
		f.Add(tampered(f, valid[0], edit))
	}
	f.Add(tampered(f, valid[1], oneFeasibleDevice))
	f.Add(tampered(f, valid[1], onlyRunEnd))
	f.Add(valid[0][:len(valid[0])/2])
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, tg := range targets {
			h, dev := tg.h, tg.dev
			res, sr, err := decodeStored(payload, h, dev)
			if err != nil {
				continue
			}
			p := res.Partition
			if !reflect.DeepEqual(p.Device(), dev) {
				t.Fatalf("accepted envelope rebuilt on %v, want the job's %v", p.Device(), dev)
			}
			m := device.LowerBound(h, dev)
			nb := p.NumBlocks()
			if nb < 1 || nb > device.BlockCap(m) {
				t.Fatalf("accepted envelope has %d blocks, cap %d", nb, device.BlockCap(m))
			}
			k := 0
			for b := 0; b < nb; b++ {
				if p.Nodes(partition.BlockID(b)) > 0 {
					k++
				}
			}
			if res.K != k || res.M != m {
				t.Fatalf("accepted envelope reports K=%d M=%d, partition has %d non-empty blocks at lower bound %d", res.K, res.M, k, m)
			}
			if res.Feasible && p.Classify() != partition.FeasibleSolution {
				t.Fatalf("accepted envelope reports feasible on a %s partition", p.Classify())
			}
			atK := len(sr.Events) == 0
			for _, e := range sr.Events {
				if e.Type != obs.RunEnd {
					continue
				}
				if e.M != m || (e.Feasible && e.K < k) {
					t.Fatalf("accepted envelope replays a run-end K=%d M=%d feasible=%v against k=%d m=%d", e.K, e.M, e.Feasible, k, m)
				}
				atK = atK || e.K == k
			}
			if !atK {
				t.Fatalf("accepted envelope replays no run-end at k=%d", k)
			}
			for v := 0; v < h.NumNodes(); v++ {
				if b := p.Block(hypergraph.NodeID(v)); b < 0 || int(b) >= nb {
					t.Fatalf("node %d in block %d of %d", v, b, nb)
				}
			}
		}
	})
}
