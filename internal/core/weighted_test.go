package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// parallelCircuit draws a random circuit in two forms: dup, where every
// base net appears r ∈ [1, 4] times, its copies scattered through the net
// order with their pins shuffled, and its MergeParallelNets form, where
// each pin set appears once with weight r. With pads, some nodes are
// pads; with res, interior nodes demand a DSP resource.
func parallelCircuit(r *rand.Rand, pads, res bool) (dup, weighted *hypergraph.Hypergraph) {
	n := 20 + r.Intn(40)
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		if pads && i%7 == 3 {
			b.AddPad("")
			continue
		}
		id := b.AddInterior("", 1+i%3)
		if res {
			b.SetResource(id, "DSP", i%4)
		}
	}
	var base [][]hypergraph.NodeID
	var order []int // base net of each dup net
	for e := 0; e < n+r.Intn(n); e++ {
		pins := make([]hypergraph.NodeID, 2+r.Intn(4))
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		base = append(base, pins)
		for c := 1 + r.Intn(4); c > 0; c-- {
			order = append(order, e)
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, e := range order {
		pins := base[e]
		r.Shuffle(len(pins), func(i, j int) { pins[i], pins[j] = pins[j], pins[i] })
		b.AddNet("", pins...)
	}
	dup = b.MustBuild()
	return dup, dup.MergeParallelNets()
}

// TestWeightedNetMatchesDuplicates is the exactness argument for weighted
// nets as a differential test: a net of weight r must behave exactly as r
// parallel copies of it. The flat peel runs the same trajectory on both
// forms (assignment, K, cut and every effort counter), and after random
// moves the partitions agree on the cut and every T_i.
func TestWeightedNetMatchesDuplicates(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		pads, res := seed%2 == 0, seed%3 == 0
		dup, wt := parallelCircuit(r, pads, res)
		if wt.NumNets() >= dup.NumNets() {
			t.Fatalf("seed %d: no parallel nets drawn", seed)
		}
		dev := device.Device{Name: "w", DatasheetCells: 12 + r.Intn(12), Pins: 14 + r.Intn(34), Fill: 1.0}
		if res {
			dev.Resources = []device.Resource{{Name: "DSP", Cap: 8 + r.Intn(8)}}
		}
		label := fmt.Sprintf("seed %d pads=%v res=%v", seed, pads, res)

		rd, err := Run(context.Background(), dup, dev, Config{})
		if err != nil {
			t.Fatalf("%s: dup: %v", label, err)
		}
		rw, err := Run(context.Background(), wt, dev, Config{})
		if err != nil {
			t.Fatalf("%s: weighted: %v", label, err)
		}
		if rd.K != rw.K || rd.Feasible != rw.Feasible || rd.Partition.Cut() != rw.Partition.Cut() {
			t.Fatalf("%s: dup K=%d feasible=%v cut=%d, weighted K=%d feasible=%v cut=%d", label,
				rd.K, rd.Feasible, rd.Partition.Cut(), rw.K, rw.Feasible, rw.Partition.Cut())
		}
		for v := 0; v < dup.NumNodes(); v++ {
			if a, b := rd.Partition.Block(hypergraph.NodeID(v)), rw.Partition.Block(hypergraph.NodeID(v)); a != b {
				t.Fatalf("%s: node %d in block %d (dup) vs %d (weighted)", label, v, a, b)
			}
		}
		sd, sw := rd.Stats, rw.Stats
		sd.PhaseTime, sw.PhaseTime = [obs.NumPhases]time.Duration{}, [obs.NumPhases]time.Duration{}
		if sd != sw {
			t.Fatalf("%s: stats differ:\n dup      %+v\n weighted %+v", label, sd, sw)
		}

		// Random moves: cut and every T_i agree, and both partitions
		// recompute clean.
		k := 2 + r.Intn(4)
		assign := make([]partition.BlockID, dup.NumNodes())
		for v := range assign {
			assign[v] = partition.BlockID(r.Intn(k))
		}
		pd, err := partition.FromAssignment(dup, dev, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := partition.FromAssignment(wt, dev, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		for move := 0; move < 60; move++ {
			v, to := hypergraph.NodeID(r.Intn(dup.NumNodes())), partition.BlockID(r.Intn(k))
			pd.Move(v, to)
			pw.Move(v, to)
			if pd.Cut() != pw.Cut() || pd.TerminalSum() != pw.TerminalSum() {
				t.Fatalf("%s move %d: cut %d/%d, T_SUM %d/%d", label, move, pd.Cut(), pw.Cut(), pd.TerminalSum(), pw.TerminalSum())
			}
			for b := 0; b < k; b++ {
				if id := partition.BlockID(b); pd.Terminals(id) != pw.Terminals(id) || pd.Feasible(id) != pw.Feasible(id) {
					t.Fatalf("%s move %d: block %d T %d/%d", label, move, b, pd.Terminals(id), pw.Terminals(id))
				}
			}
		}
		for _, p := range []*partition.Partition{pd, pw} {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}
