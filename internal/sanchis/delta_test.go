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
// every direction's zero-size count equals the zero-size cells in its bucket,
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
	for d, bk := range e.buckets {
		var pads int32
		for vi := range e.szOf {
			if e.szOf[vi] == 0 && bk.Contains(int32(vi)) {
				pads++
			}
		}
		if e.padCnt[d] != pads {
			t.Fatalf("%s move %d: direction %d counts %d zero-size cells, bucket holds %d", label, move, d, e.padCnt[d], pads)
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
// variant, and whole-graph and subset-restricted passes. A second leg on
// the same engine runs it at the start of passes reached after kept
// prefixes, cut-short passes and restores (seedPasses), where initPass
// reuses the seed gains of earlier passes, and a third starts a new call
// on two of the blocks, which must not reuse them. Seeds past 6 draw
// weighted nets and DSP demands, and one device caps DSP.
func TestDeltaBucketStateMatchesRecompute(t *testing.T) {
	devices := []device.Device{
		{Name: "tight", DatasheetCells: 12, Pins: 10, Fill: 1.0},
		{Name: "roomy", DatasheetCells: 20, Pins: 24, Fill: 1.0},
		{Name: "dsp", DatasheetCells: 16, Pins: 24, Fill: 1.0, Resources: []device.Resource{{Name: "DSP", Cap: 6}}},
	}
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := randomCircuit(r)
		if seed > 6 {
			_, h = parallelPair(r)
		}
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
					seedPasses(t, e, r, blocks, partition.BlockID(k-1), m, subset, 12, label+" seeding")
					seedPasses(t, e, r, blocks[:2], blocks[1], m, subset, 4, label+" new call")
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

// selectBestScan is the reference selector the candidate cache is checked
// against: every direction's top gain list — or, when the whole list is
// gated, a bounded descent to its first admissible cell — under the §3.7
// comparator (g1, g2, S_FROM−S_TO). It keeps no state between calls and
// recomputes g2 with gain2 instead of reading the memo; without UseLevel2
// every g2 is zero.
func (e *Engine) selectBestScan(scratch []int32) (candidate, bool) {
	var best candidate
	found := false
	for fi, f := range e.blocks {
		for ti, t := range e.blocks {
			if ti == fi {
				continue
			}
			bk := e.buckets[e.dirIndex(fi, ti)]
			topG, ok := bk.MaxGain()
			if !ok {
				continue
			}
			win := e.dirWindowFor(f, t)
			admits := func(vi int32) bool {
				return win.admits(int(e.szOf[vi])) && (e.nres == 0 || e.admitsRes(win, vi))
			}
			consider := func(vi int32, g1 int) {
				c := candidate{v: hypergraph.NodeID(vi), from: f, to: t, g1: g1, bal: e.p.Size(f) - e.p.Size(t)}
				if e.cfg.UseLevel2 {
					c.g2 = e.gain2(c.v, f, t)
				}
				if !found || c.g1 > best.g1 ||
					c.g1 == best.g1 && (c.g2 > best.g2 || c.g2 == best.g2 && c.bal > best.bal) {
					best, found = c, true
				}
			}
			examined := false
			for _, vi := range bk.TopN(tieWidth, scratch[:0]) {
				if admits(vi) {
					consider(vi, topG)
					examined = true
				}
			}
			if !examined {
				limit := 64
				bk.ScanFrom(func(vi int32, g int) bool {
					limit--
					if limit < 0 {
						return false
					}
					if !admits(vi) {
						return true
					}
					consider(vi, g)
					return false
				})
			}
		}
	}
	return best, found
}

// TestDirCandStress checks, at every step of several passes, that the
// per-direction candidate cache selects exactly the move the full scan
// selects, over a wide random instance set (up to 15 blocks, mixed cell
// sizes, pads) under both gain models, with and without level-2 gains.
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
			for _, lv2 := range []bool{true, false} {
				for _, pin := range []bool{false, true} {
					p, err := partition.FromAssignment(h, dev, assign, k)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Default()
					cfg.UseLevel2 = lv2
					cfg.PinGain = pin
					e := New(p, cfg)
					step := 0
					sel := func(scratch []int32) (candidate, bool) {
						want, wok := e.selectBestScan(scratch)
						got, ok := e.selectBest(scratch)
						if ok != wok || got.v != want.v || got.from != want.from || got.to != want.to || got.g1 != want.g1 || got.bal != want.bal {
							t.Fatalf("seed %d dev %s level2 %v pin %v step %d: cached (%v, %d→%d, g1 %d, bal %d, ok %v), scan (%v, %d→%d, g1 %d, bal %d, ok %v)",
								seed, dev.Name, lv2, pin, step, got.v, got.from, got.to, got.g1, got.bal, ok,
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
}

// seedPasses drives passes the ways a pass series reaches initPass and runs
// the gain oracle at every pass start: full passes rolled back to a random
// prefix (a kept best prefix), passes cut short after a move or two (a
// cancelled pass), and restores of an earlier pass's start state (a
// restart series). A non-nil cells restricts the passes like
// ImproveSubsetCtx.
func seedPasses(t *testing.T, e *Engine, r *rand.Rand, blocks []partition.BlockID, rem partition.BlockID, m int,
	cells []hypergraph.NodeID, passes int, label string) {
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
	var starts []partition.Snapshot
	for pass := 0; pass < passes; pass++ {
		if len(starts) > 0 && r.Intn(3) == 0 {
			e.p.Restore(starts[r.Intn(len(starts))])
		}
		starts = append(starts, e.p.Snapshot())
		e.initPass()
		e.journal = e.journal[:0]
		checkKernelState(t, e, fmt.Sprintf("%s pass %d", label, pass), -1)
		limit := -1
		if r.Intn(2) == 0 {
			limit = 1 + r.Intn(2)
		}
		for move := 0; move != limit; move++ {
			c, ok := e.selectBest(scratch)
			if !ok {
				break
			}
			e.applyMove(c)
		}
		keep := r.Intn(len(e.journal) + 1)
		for i := len(e.journal) - 1; i >= keep; i-- {
			e.p.Move(e.journal[i].v, e.journal[i].from)
		}
	}
}
