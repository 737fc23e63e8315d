package sanchis

// Oracle tests for the move kernel: after every applied move, every gain
// the kernel maintains incrementally must equal a recomputation from the
// partition, and the cached best-move selection must equal the full scan.

import (
	"fmt"
	"math/rand"
	"testing"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// randomCircuit builds a random hypergraph with a sprinkling of pads,
// deterministically from r.
func randomCircuit(r *rand.Rand) *hypergraph.Hypergraph {
	var b hypergraph.Builder
	n := 10 + r.Intn(40)
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			b.AddPad("p")
		} else {
			b.AddInterior("v", 1)
		}
	}
	for e := 0; e < n+r.Intn(2*n); e++ {
		d := 2 + r.Intn(4)
		pins := make([]hypergraph.NodeID, d)
		for i := range pins {
			pins[i] = hypergraph.NodeID(r.Intn(n))
		}
		b.AddNet("e", pins...)
	}
	return b.MustBuild()
}

// stepPasses drives passes over blocks move by move, choosing each move
// with sel and calling check after initPass (move −1) and after every
// applied move. Each pass rolls back the second half of its journal, so
// later passes start from a partition the kernel itself produced. A
// non-nil cells restricts the passes like ImproveSubsetCtx.
func stepPasses(t *testing.T, e *Engine, blocks []partition.BlockID, rem partition.BlockID, m int,
	cells []hypergraph.NodeID, passes int, sel func([]int32) (candidate, bool), check func(move int)) {
	t.Helper()
	if cells != nil {
		e.subset = cells
		e.inSubset = make([]bool, e.h.NumNodes())
		for _, v := range cells {
			e.inSubset[v] = true
		}
		defer func() { e.subset, e.inSubset = nil, nil }()
	}
	e.prepare(blocks, rem, m)
	scratch := make([]int32, 0, tieWidth)
	for pass := 0; pass < passes; pass++ {
		e.initPass()
		e.journal = e.journal[:0]
		check(-1)
		for move := 0; ; move++ {
			c, ok := sel(scratch)
			if !ok {
				break
			}
			e.applyMove(c)
			check(move)
		}
		for i := len(e.journal) - 1; i >= len(e.journal)/2; i-- {
			e.p.Move(e.journal[i].v, e.journal[i].from)
		}
	}
}

// checkKernelState is the gain oracle: every unlocked candidate cell's
// bucket gain equals cellGain in every direction, its level-2 memo entry,
// when valid, equals gain2, cells outside a subset are absent from the buckets,
// and the delta accumulator is back to all-zero.
func checkKernelState(t *testing.T, e *Engine, label string, move int) {
	t.Helper()
	for vi := 0; vi < e.h.NumNodes(); vi++ {
		v := hypergraph.NodeID(vi)
		b := e.p.Block(v)
		fi := e.blkIdx[b]
		if fi < 0 || e.locked[v] {
			continue
		}
		for ti, tb := range e.blocks {
			if ti == fi {
				continue
			}
			got, in := e.buckets[e.dirIndex(fi, ti)].Gain(int32(v))
			if e.subsetExcluded(v) {
				if in {
					t.Fatalf("%s move %d: excluded cell %d is in bucket %d→%d", label, move, v, fi, ti)
				}
				continue
			}
			if want := e.cellGain(v, b, tb); !in || got != want {
				t.Fatalf("%s move %d: cell %d dir %d→%d: bucket gain %d (present=%v), cellGain %d",
					label, move, v, fi, ti, got, in, want)
			}
			// Read the memo without gain2Of, which would overwrite a stale
			// entry and hide it from every later check.
			s := ti
			if ti > fi {
				s--
			}
			idx := vi*(len(e.blocks)-1) + s
			if got, want := int(e.g2cache[idx]), e.gain2(v, b, tb); e.g2stamp[idx] == e.cellRev[v] && got != want {
				t.Fatalf("%s move %d: cell %d dir %d→%d: memoised gain2 %d, gain2 %d",
					label, move, v, fi, ti, got, want)
			}
		}
	}
	for i, a := range e.accum {
		if a != 0 {
			t.Fatalf("%s move %d: accum[%d] = %d, want all-zero between moves", label, move, i, a)
		}
	}
}

// randomInstance draws a random k-block assignment of h from r.
func randomInstance(r *rand.Rand, h *hypergraph.Hypergraph, k int) ([]partition.BlockID, []partition.BlockID) {
	assign := make([]partition.BlockID, h.NumNodes())
	for v := range assign {
		assign[v] = partition.BlockID(r.Intn(k))
	}
	blocks := make([]partition.BlockID, k)
	for i := range blocks {
		blocks[i] = partition.BlockID(i)
	}
	return assign, blocks
}

// TestDeltaBucketStateMatchesRecompute runs the gain oracle after every
// move of several passes, across devices, block counts, every gain-model
// variant, and whole-graph and subset-restricted passes.
func TestDeltaBucketStateMatchesRecompute(t *testing.T) {
	devices := []device.Device{
		{Name: "tight", DatasheetCells: 12, Pins: 10, Fill: 1.0},
		{Name: "roomy", DatasheetCells: 20, Pins: 24, Fill: 1.0},
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := randomCircuit(r)
		k := 2 + r.Intn(4)
		assign, blocks := randomInstance(r, h, k)
		var cells []hypergraph.NodeID
		for v := 0; v < h.NumNodes(); v++ {
			if v%3 != 0 {
				cells = append(cells, hypergraph.NodeID(v))
			}
		}
		for _, dev := range devices {
			m := device.LowerBound(h, dev)
			for _, vt := range kernelVariants {
				for _, subset := range [][]hypergraph.NodeID{nil, cells} {
					p, err := partition.FromAssignment(h, dev, assign, k)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Default()
					vt.mut(&cfg)
					e := New(p, cfg)
					label := fmt.Sprintf("seed %d dev %s %s subset=%v", seed, dev.Name, vt.name, subset != nil)
					stepPasses(t, e, blocks, partition.BlockID(k-1), m, subset, 3, e.selectBest,
						func(move int) { checkKernelState(t, e, label, move) })
					if err := p.Validate(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
	}
}

// TestGain2MemoSurvivesLayoutShrink reuses one engine for a 5-block
// Improve and then a 2-block pass. The level-2 memo is indexed by (cell,
// direction slot), so the 5-block run leaves stamps at indices that belong
// to other cells under the 2-block layout; none of them may be trusted.
func TestGain2MemoSurvivesLayoutShrink(t *testing.T) {
	dev := device.Device{Name: "d", DatasheetCells: 16, Pins: 14, Fill: 1.0}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := stressCircuit(r)
		const k = 5
		assign, blocks := randomInstance(r, h, k)
		p, err := partition.FromAssignment(h, dev, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		m := device.LowerBound(h, dev)
		e := New(p, Default())
		e.Improve(blocks, k-1, m)
		label := fmt.Sprintf("seed %d after shrink", seed)
		stepPasses(t, e, blocks[:2], 1, m, nil, 1, e.selectBest,
			func(move int) { checkKernelState(t, e, label, move) })
	}
}

// TestDirCandStress checks, at every step of several passes, that the
// per-direction candidate cache selects exactly the move the full scan
// selects, over a wide random instance set (up to 15 blocks, mixed cell
// sizes, pads) under both gain models.
func TestDirCandStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	devices := []device.Device{
		{Name: "tiny", DatasheetCells: 8, Pins: 8, Fill: 1.0},
		{Name: "tight", DatasheetCells: 12, Pins: 10, Fill: 1.0},
		{Name: "roomy", DatasheetCells: 20, Pins: 24, Fill: 1.0},
	}
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := stressCircuit(r)
		k := 2 + r.Intn(14)
		assign, blocks := randomInstance(r, h, k)
		for _, dev := range devices {
			m := device.LowerBound(h, dev)
			for _, pin := range []bool{false, true} {
				p, err := partition.FromAssignment(h, dev, assign, k)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Default()
				cfg.PinGain = pin
				e := New(p, cfg)
				step := 0
				sel := func(scratch []int32) (candidate, bool) {
					want, wok := e.selectBestScan(scratch)
					got, ok := e.selectBestCached(scratch)
					if ok != wok || got.v != want.v || got.from != want.from || got.to != want.to || got.g1 != want.g1 || got.bal != want.bal {
						t.Fatalf("seed %d dev %s pin %v step %d: cached (%v, %d→%d, g1 %d, bal %d, ok %v), scan (%v, %d→%d, g1 %d, bal %d, ok %v)",
							seed, dev.Name, pin, step, got.v, got.from, got.to, got.g1, got.bal, ok,
							want.v, want.from, want.to, want.g1, want.bal, wok)
					}
					step++
					return got, ok
				}
				stepPasses(t, e, blocks, partition.BlockID(k-1), m, nil, 3, sel, func(int) {})
			}
		}
	}
}
