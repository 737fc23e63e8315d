package sanchis

import (
	"fmt"
	"math/rand"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// parallelPair draws a random circuit in two forms: dup, where every
// base net appears r ∈ [1, 4] times at scattered places in net order, and
// its MergeParallelNets form, where each pin set appears once with weight
// r. Some nodes are pads, and interior nodes demand DSP.
func parallelPair(r *rand.Rand) (dup, weighted *hypergraph.Hypergraph) {
	n := 12 + r.Intn(30)
	var b hypergraph.Builder
	for i := 0; i < n; i++ {
		if i%6 == 5 {
			b.AddPad("")
		} else {
			b.SetResource(b.AddInterior("", 1+i%2), "DSP", i%3)
		}
	}
	var base [][]hypergraph.NodeID
	var order []int
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
		b.AddNet("", base[e]...)
	}
	dup = b.MustBuild()
	return dup, dup.MergeParallelNets()
}

// TestWeightedNetGainsMatchDuplicates drives two engines in lockstep, one
// on a circuit with parallel nets and one on its weighted form: every
// selected move must agree, and after every move gain1, gainPin and gain2
// of every cell in every direction, and every bucket gain, must be equal.
func TestWeightedNetGainsMatchDuplicates(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		dup, wt := parallelPair(r)
		dev := device.Device{Name: "w", DatasheetCells: 10 + r.Intn(10), Pins: 20 + r.Intn(20), Fill: 1.0}
		if seed%2 == 0 {
			dev.Resources = []device.Resource{{Name: "DSP", Cap: 4 + r.Intn(6)}}
		}
		k := 2 + r.Intn(4)
		assign, blocks := randomInstance(r, dup, k)
		m := device.LowerBound(dup, dev)
		for _, vt := range kernelVariants {
			label := fmt.Sprintf("seed %d %s", seed, vt.name)
			cfg := Default()
			vt.mut(&cfg)
			var engs [2]*Engine
			for i, h := range []*hypergraph.Hypergraph{dup, wt} {
				p, err := partition.FromAssignment(h, dev, assign, k)
				if err != nil {
					t.Fatal(err)
				}
				engs[i] = New(p, cfg)
				engs[i].prepare(blocks, partition.BlockID(k-1), m)
			}
			ed, ew := engs[0], engs[1]
			scratch := make([]int32, 0, tieWidth)
			for pass := 0; pass < 3; pass++ {
				ed.initPass()
				ew.initPass()
				for move := -1; ; move++ {
					compareGains(t, ed, ew, fmt.Sprintf("%s pass %d move %d", label, pass, move))
					cd, okd := ed.selectBest(scratch)
					cw, okw := ew.selectBest(scratch)
					if okd != okw || cd != cw {
						t.Fatalf("%s pass %d move %d: dup selects %+v (%v), weighted %+v (%v)", label, pass, move, cd, okd, cw, okw)
					}
					if !okd {
						break
					}
					ed.applyMove(cd)
					ew.applyMove(cw)
				}
				// Roll back the second half of the pass, as runPass would
				// roll back to its best prefix.
				for _, e := range engs {
					for i := len(e.journal) - 1; i >= len(e.journal)/2; i-- {
						e.p.Move(e.journal[i].v, e.journal[i].from)
					}
					e.journal = e.journal[:0]
				}
			}
			if *ed.st != *ew.st {
				t.Fatalf("%s: stats dup %+v, weighted %+v", label, *ed.st, *ew.st)
			}
		}
	}
}

// compareGains checks that two lockstep engines agree on every gain.
func compareGains(t *testing.T, ed, ew *Engine, label string) {
	t.Helper()
	if ed.p.Cut() != ew.p.Cut() || ed.key() != ew.key() {
		t.Fatalf("%s: cut %d/%d, key %v/%v", label, ed.p.Cut(), ew.p.Cut(), ed.key(), ew.key())
	}
	for vi := 0; vi < ed.h.NumNodes(); vi++ {
		v := hypergraph.NodeID(vi)
		f := ed.p.Block(v)
		fi := ed.blkIdx[f]
		if fi < 0 {
			continue
		}
		for ti, to := range ed.blocks {
			if ti == fi {
				continue
			}
			if a, b := ed.gain1(v, f, to), ew.gain1(v, f, to); a != b {
				t.Fatalf("%s: cell %d %d→%d gain1 %d/%d", label, v, f, to, a, b)
			}
			if a, b := ed.gainPin(v, f, to), ew.gainPin(v, f, to); a != b {
				t.Fatalf("%s: cell %d %d→%d gainPin %d/%d", label, v, f, to, a, b)
			}
			if a, b := ed.gain2(v, f, to), ew.gain2(v, f, to); a != b {
				t.Fatalf("%s: cell %d %d→%d gain2 %d/%d", label, v, f, to, a, b)
			}
			d := ed.dirIndex(fi, ti)
			ga, ina := ed.buckets[d].Gain(int32(v))
			gb, inb := ew.buckets[d].Gain(int32(v))
			if ga != gb || ina != inb {
				t.Fatalf("%s: cell %d %d→%d bucket gain %d(%v)/%d(%v)", label, v, f, to, ga, ina, gb, inb)
			}
		}
	}
}
