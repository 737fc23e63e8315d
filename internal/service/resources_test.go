package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/hypergraph"
)

// dspPHG is scalar-tiny (total size 5) but stamps a 9-DSP demand on one
// node, so it is unsplittable on any device whose DSP cap is below 9.
const dspPHG = `phg
node hog 1 DSP:9
node a 1
node b 1
node c 1
node d 1
pad p
net n1 0 1 5
net n2 1 2
net n3 2 3
net n4 3 4
`

// TestServiceResourceVectorEndToEnd is the fpartd half of the DSP-tight
// acceptance case: the same upload succeeds on a scalar device (undeclared
// resource axes never bind) and fails on a vector device whose DSP cap the
// hog node exceeds — with the failure naming the node and the resource.
func TestServiceResourceVectorEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)

	scalar, err := s.Submit(Request{Format: "phg", Netlist: dspPHG, Device: "LUT:50/64"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, scalar)
	if snap := s.Snapshot(scalar); snap.State != StateDone || !snap.Result.Feasible {
		t.Fatalf("scalar job ended %s (%v), want feasible done", snap.State, snap.Err)
	}

	vector, err := s.Submit(Request{Format: "phg", Netlist: dspPHG, Device: "LUT:50/64", Resources: "DSP:4"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, vector)
	snap := s.Snapshot(vector)
	if snap.State != StateFailed || snap.Err == nil {
		t.Fatalf("vector job ended %s (%v), want failed (DSP 9 > cap 4)", snap.State, snap.Err)
	}
	for _, want := range []string{"hog", "DSP"} {
		if !strings.Contains(snap.Err.Error(), want) {
			t.Errorf("failure should name %q: %v", want, snap.Err)
		}
	}

	// The two submissions must not share a cache key: the resource caps
	// are part of the fingerprint via the device parameters.
	if scalar.Key() == vector.Key() {
		t.Error("scalar and vector jobs coalesced onto one fingerprint")
	}

	// Bad specs are rejected at admission, naming the offending token.
	for _, req := range []Request{
		{Format: "phg", Netlist: dspPHG, Device: "LUT:0/64"},
		{Format: "phg", Netlist: dspPHG, Device: "LUT:50/64", Resources: "DSP:many"},
		{Format: "phg", Netlist: dspPHG, Device: "LUT:50/64", Resources: "DSP:4,DSP:8"},
		{Format: "phg", Netlist: dspPHG, Device: "LUT:50,DSP:2/64", Resources: "DSP:4"},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("request %+v should have been rejected", req)
		}
	}
}

// TestServiceBoardGating submits the same circuit against a permissive
// crossbar and a wire-starved chain: the partition is identical, but the
// board gate flips feasibility and the job view carries the routing report.
func TestServiceBoardGating(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)

	submit := func(boardSpec string) Snapshot {
		t.Helper()
		j, err := s.Submit(Request{Circuit: "c3540", Device: "XC3020", Board: boardSpec})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		snap := s.Snapshot(j)
		if snap.State != StateDone {
			t.Fatalf("board=%q job ended %s (%v)", boardSpec, snap.State, snap.Err)
		}
		return snap
	}

	open := submit("crossbar:16")
	if !open.Result.Feasible || open.Result.Board == nil || !open.Result.Board.Routable {
		t.Fatalf("crossbar run should be routable: %+v", open.Result.Board)
	}
	tight := submit("chain:16:wires=1")
	if tight.Result.Feasible {
		t.Fatal("one wire per chain link should not route a multi-block cut")
	}
	if open.Key == tight.Key {
		t.Error("different boards coalesced onto one fingerprint")
	}

	if _, err := s.Submit(Request{Circuit: "c3540", Device: "XC3020", Board: "torus:4"}); err == nil {
		t.Error("unknown board topology accepted")
	}
}

// TestHTTPBoardAndResources drives the new request fields through the wire
// format: the JSON body carries resources/board, and a gated job's view
// exposes the routing report.
func TestHTTPBoardAndResources(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/partition", apiRequest{
		Circuit: "c3540", Device: "XC3020", Board: "crossbar:16",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	final := pollDone(t, ts, v.ID)
	if final.State != StateDone || !final.Feasible {
		t.Fatalf("gated job ended %s feasible=%v (%s)", final.State, final.Feasible, final.Error)
	}
	if final.Board == nil || !final.Board.Routable || final.Board.InterNets < 1 {
		t.Fatalf("job view should carry the routing report: %+v", final.Board)
	}

	// A DSP-starved vector submission fails end to end over HTTP too.
	resp, body = postJSON(t, ts, "/v1/partition", apiRequest{
		Netlist: dspPHG, Format: "phg", Device: "LUT:50/64", Resources: "DSP:4",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("vector submit: want 202, got %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	final = pollDone(t, ts, v.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "DSP") {
		t.Fatalf("vector job should fail naming DSP, got %s: %q", final.State, final.Error)
	}

	// Bad specs map to 400 with the offending token in the message.
	resp, body = postJSON(t, ts, "/v1/partition", apiRequest{
		Circuit: "c3540", Device: "XC3020", Board: "mesh:4xfour",
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "4xfour") {
		t.Fatalf("bad board spec: want 400 naming the token, got %d: %s", resp.StatusCode, body)
	}
}

// TestHTTPRejectsOversizedBoard: a board past board.MaxSlots is a bad
// request, answered before any job allocates a slot table for it.
func TestHTTPRejectsOversizedBoard(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, spec := range []string{"chain:1000000000000", "crossbar:1000000", "mesh:100000x100000"} {
		resp, body := postJSON(t, ts, "/v1/partition", apiRequest{
			Circuit: "c3540", Device: "XC3020", Board: spec,
		})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), spec) {
			t.Errorf("board %q: want 400 naming the spec, got %d: %s", spec, resp.StatusCode, body)
		}
	}
}

// TestFingerprintResourceColumns pins the cache-key rule for resource
// demands: two structurally identical uploads that differ only in a node's
// resource stamp are different computations, and the resource *name*
// matters (a DSP demand is not a BRAM demand).
func TestFingerprintResourceColumns(t *testing.T) {
	base := `phg
node a 1 DSP:2
node b 1
net n1 0 1
`
	variants := []string{
		strings.Replace(base, "DSP:2", "DSP:3", 1),
		strings.Replace(base, "DSP:2", "BRAM:2", 1),
		strings.Replace(base, "node a 1 DSP:2", "node a 1", 1),
	}
	dev, _ := device.ByName("XC3020")
	load := func(body string) *hypergraph.Hypergraph {
		c, err := driver.Load(driver.Source{Reader: strings.NewReader(body), Format: "phg"}, dev)
		if err != nil {
			t.Fatal(err)
		}
		return c.Hypergraph
	}
	ref := Fingerprint(load(base), dev, "fpart", "")
	for i, v := range variants {
		if Fingerprint(load(v), dev, "fpart", "") == ref {
			t.Errorf("variant %d: resource-demand change did not change the fingerprint", i)
		}
	}
	if Fingerprint(load(base), dev, "fpart", "chain:4") == ref {
		t.Error("board spec did not change the fingerprint")
	}
	if Fingerprint(load(base), dev, "fpart", "") != ref {
		t.Error("fingerprint is not deterministic")
	}
}

// pipelineBLIF is an n-stage inverter pipeline whose first `latches`
// stages register their output in a latch and whose rest pass it through
// a buffer gate. Techmap packs a latch or a buffer alike beside its
// inverter, so variants with the same n differ only in their FF column.
func pipelineBLIF(n, latches int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".model pipe\n.inputs x0 clk\n.outputs x%d\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ".names x%d y%d\n0 1\n", i, i)
		if i < latches {
			fmt.Fprintf(&sb, ".latch y%d x%d re clk 0\n", i, i+1)
		} else {
			fmt.Fprintf(&sb, ".names y%d x%d\n1 1\n", i, i+1)
		}
	}
	sb.WriteString(".end\n")
	return sb.String()
}

// TestServiceBlifFFCap is the fpartd half of the BLIF flip-flop cap: a
// 32-latch pipeline uploaded as {"format":"blif","resources":"FF:8"} binds
// on its FF column, so the job reports M = 4 and a feasible K >= 4.
func TestServiceBlifFFCap(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownClean(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/partition", apiRequest{
		Format: "blif", Netlist: pipelineBLIF(32, 32), Device: "CLB:500/200", Resources: "FF:8",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	final := pollDone(t, ts, v.ID)
	if final.State != StateDone || final.M != 4 || !final.Feasible || final.K < 4 {
		t.Fatalf("job ended %s K=%d M=%d feasible=%v (%s): want M = 4 and K >= 4 feasible",
			final.State, final.K, final.M, final.Feasible, final.Error)
	}
}

// TestFingerprintBlifLatchCount pins that flip-flops reach the cache key:
// two BLIF pipelines of the same shape that differ only in how many stages
// are latched map to the same nodes and nets but different FF columns, and
// must not share a fingerprint.
func TestFingerprintBlifLatchCount(t *testing.T) {
	dev, err := device.ParseSpec("CLB:500,FF:8/200")
	if err != nil {
		t.Fatal(err)
	}
	load := func(latches int) *hypergraph.Hypergraph {
		c, err := driver.Load(driver.Source{Reader: strings.NewReader(pipelineBLIF(16, latches)), Format: "blif"}, dev)
		if err != nil {
			t.Fatal(err)
		}
		return c.Hypergraph
	}
	a, b := load(16), load(15)
	if a.NumNodes() != b.NumNodes() || a.NumNets() != b.NumNets() || a.TotalSize() != b.TotalSize() {
		t.Fatalf("variants differ in shape: %v vs %v", a, b)
	}
	if a.TotalResource("FF") != 16 || b.TotalResource("FF") != 15 {
		t.Fatalf("FF totals %d/%d, want 16/15", a.TotalResource("FF"), b.TotalResource("FF"))
	}
	if Fingerprint(a, dev, "fpart", "") == Fingerprint(b, dev, "fpart", "") {
		t.Error("BLIFs differing only in latch count share a fingerprint")
	}
}
