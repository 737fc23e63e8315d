// Package sanchis implements the guided multi-way iterative-improvement
// engine at the heart of FPART (Krupnova & Saucier, DATE 1999, §3.3–§3.7).
//
// It is the Sanchis (1989) multi-way extension of Fiduccia–Mattheyses with
// the paper's FPGA-specific guidance:
//
//   - one gain bucket per move direction — k·(k−1) buckets for a k-block
//     pass — with LIFO lists and 2-level (Krishnamurthy) gains for
//     tie-breaking, further ties broken toward size-equilibrating moves
//     max(S_FROM − S_TO) (§3.7);
//   - feasible move regions gating cell moves by block size windows, with
//     separate windows for 2-block and multi-block passes, no upper bound
//     for the remainder, and no I/O-violation gating (§3.5);
//   - solution selection by the lexicographic key (f, d_k, T_SUM, d_k^E)
//     (§3.4) rather than raw cut size;
//   - dual solution stacks — semi-feasible and infeasible — collected during
//     the first pass and used to restart pass series (§3.6).
//
// A 2-block Improve call is exactly the guided FM bipartitioning pass; the
// multi-block call is the Sanchis generalization.
package sanchis

import (
	"context"
	"math"
	"sort"

	"fpart/internal/gain"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// Windows defines the feasible move regions of §3.5. The published
// constants are direct multipliers of S_MAX (see DESIGN.md for the
// interpretation note): a non-remainder block must stay within
// [lower·S_MAX, Upper·S_MAX], where lower is Lower2 for 2-block passes and
// LowerMulti for multi-block passes. The remainder has no upper bound, and
// moves out of the remainder are never size-gated.
type Windows struct {
	Upper      float64 // ε_max = 1.05
	Lower2     float64 // ε_min for 2-block passes = 0.95
	LowerMulti float64 // ε_min for multi-block passes = 0.3
}

// DefaultWindows returns the published §4 values.
func DefaultWindows() Windows {
	return Windows{Upper: 1.05, Lower2: 0.95, LowerMulti: 0.3}
}

// tieWidth is how many cells per direction's top gain list are examined
// when breaking ties.
const tieWidth = 8

// Config tunes the engine. Zero values select reasonable defaults via
// normalize.
type Config struct {
	Windows Windows
	Cost    partition.CostParams
	// StackDepth is D_stack, the depth of each of the two solution stacks
	// (§3.6; published value 4). Zero disables solution stacks. Set to -1
	// to explicitly disable while keeping other defaults.
	StackDepth int
	// MaxPasses bounds each pass series. Zero selects 10.
	MaxPasses int
	// UseLevel2 enables 2-level Krishnamurthy gains for tie-breaking.
	UseLevel2 bool
	// GainLevels selects deeper Krishnamurthy look-ahead for tie-breaking
	// (3 or more levels, compared lexicographically). Zero or below 3
	// defers to UseLevel2. Krishnamurthy [8] and the study [7] cited in
	// §3.7 found diminishing returns past level 2 — the ablation bench
	// confirms it here.
	GainLevels int
	// DisableWindows turns off all size gating (ablation switch).
	DisableWindows bool
	// CutObjective replaces the infeasibility-distance solution key with
	// the classical (feasible blocks, cut size) key — the cost function of
	// Kuznar et al. [9] that §3.3 contrasts against. Used by the k-way.x
	// baseline and the cost-function ablation.
	CutObjective bool
	// PinGain implements the paper's first future-work suggestion (§5):
	// bucket cells by the real change in block I/O pin counts (−ΔT over
	// the touched blocks) instead of the cut-net gain. A net that stays
	// cut can still free a pin on the source block or cost one on the
	// target; pin gains see that, cut gains do not.
	PinGain bool
	// EarlyStop implements the paper's second future-work suggestion
	// (§5): abort an FM pass after this many consecutive moves without
	// improving the pass-best solution, cutting the time spent exploring
	// the infeasible region. Zero disables (the paper's baseline
	// behaviour: a full pass).
	EarlyStop int
	// Obs, when non-nil, receives stack-restart and restart-solution
	// accept/reject events (§3.6). The nil emitter is inert; see
	// internal/obs.
	Obs *obs.Emitter
}

func (c Config) normalize() Config {
	if c.Windows == (Windows{}) {
		c.Windows = DefaultWindows()
	}
	if c.Cost == (partition.CostParams{}) {
		c.Cost = partition.DefaultCost()
	}
	if c.StackDepth == 0 {
		c.StackDepth = 4
	} else if c.StackDepth < 0 {
		c.StackDepth = 0
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 10
	}
	return c
}

// Default returns the paper's published engine configuration: windows
// (1.05, 0.95, 0.3), cost (0.4, 0.6, 0.1), stack depth 4, 2-level gains.
func Default() Config {
	return Config{UseLevel2: true}.normalize()
}

// Stats reports the work done by one Improve call.
type Stats struct {
	Passes         int // FM passes executed, including stack restarts
	MovesEvaluated int // candidate moves examined by best-move selection
	MovesApplied   int // cell moves applied (before rollbacks)
	MovesGated     int // candidates rejected by the §3.5 move windows
	BucketOps      int // gain-bucket mutations (inserts, removals, updates)
	Restarts       int // pass series started from stacked solutions
	Improved       bool
}

// Engine runs improvement passes over a Partition. An Engine may be reused
// across Improve calls on the same partition; it is not safe for concurrent
// use.
type Engine struct {
	p   *partition.Partition
	h   *hypergraph.Hypergraph
	cfg Config

	// per-Improve state
	blocks    []partition.BlockID
	blkIdx    []int // BlockID -> index in blocks, -1 inactive
	remainder partition.BlockID
	m         int
	allowOver bool
	// subset, when non-nil, restricts each pass's candidate cells to this
	// list (ImproveSubsetCtx) instead of scanning every node of the graph.
	// inSubset is its membership mask: the delta-update kernels must treat
	// excluded cells like locked ones, because they were never seeded into
	// the gain buckets.
	subset   []hypergraph.NodeID
	inSubset []bool

	// §3.5 window limits as integers, fixed per Improve call (prepare):
	// a destination may not grow past winUpInt, a source may not shrink
	// below winLowInt. See dirWindowFor for the exactness argument.
	winUpInt, winLowInt int

	// szOf[v] = h.Node(v).Size, packed for cache locality in the
	// admissibility test of the selection loop.
	szOf []int32

	// Resource-vector window state (nres > 0 only; all empty for scalar
	// devices, whose selection loop pays exactly one nres==0 test per
	// candidate). The §3.5 upper window generalizes componentwise: a move
	// into non-remainder block T is admissible only if T's demand total
	// stays within resUpInt[r] on every axis r. To keep the per-candidate
	// test O(1) instead of O(R), each cell carries a packed
	// dominant-resource bound resPack[v] = max_r ⌈demand_r(v)·SCALE/C_r⌉
	// and each direction a packed headroom packHead = min_r
	// ⌊headroom_r·SCALE/C_r⌋. The cache keys stay integers, and the packed
	// accept is exact-sound by the same argument as winLowInt:
	// ⌈a·SCALE/C⌉ ≤ ⌊b·SCALE/C⌋ implies a·SCALE/C ≤ b·SCALE/C implies
	// a ≤ b (SCALE/C > 0), so a packed accept never admits an overflowing
	// move. A packed reject can be spurious (demand and headroom may
	// dominate on different axes), so it falls back to the exact
	// componentwise test — outcomes are identical to the slow path.
	nres      int
	resUpInt  []int   // per-axis integer upper limit (cap, relaxed ×Upper while allowOver)
	resMinDem []int   // per-axis minimum demand over all nodes (retirement test)
	resPack   []int32 // per-node packed dominant-resource demand bound

	// buckets[d] points into slab, which backs every direction's gain
	// bucket with one shared allocation family (cache-adjacent, one Clear
	// pass per initPass instead of per-bucket rebuilds).
	buckets []*gain.Bucket
	slab    *gain.Slab
	locked  []bool
	stamp   []int32
	epoch   int32

	// netLock[net*nb + bi] counts the locked pins of net in active block
	// blocks[bi]. Maintained by applyMove (a cell locks in its destination
	// block and never moves again within the pass) and zeroed by initPass,
	// it makes the binding-number lock tests of gain2 and gainLevels O(1)
	// per net instead of a scan over the net's pins.
	netLock []int32

	journal []moveRec

	// delta-gain kernel scratch (sized in ImproveCtx). accum holds the
	// pending gain delta of every (cell, outgoing-direction slot) pair; it
	// is all-zero between applyMove calls. touched lists the cells with
	// pending deltas in first-touch order, netBuf receives the per-net
	// transition trace of the move being applied.
	accum   []int32
	touched []int32
	netBuf  []partition.NetDelta

	// tie-breaking scratch: Krishnamurthy level vectors for the candidate
	// and incumbent in selectBest, and the bounded top-gain-list scan
	// buffer. Reused across passes to avoid per-comparison allocation.
	lvCand, lvBest []int
	topScratch     []int32

	// dirCand caches, per direction, the local winner the direction would
	// contribute to best-move selection; applyMove dirties the directions
	// whose source or destination is a move endpoint and initPass resets
	// all. See selectBestCached.
	dirCand []dirCand

	// level-2 gain memo: one entry per (cell, outgoing-direction slot),
	// valid while g2stamp matches the cell's revision counter. cellRev is
	// bumped for every cell whose level-2 gain may have changed: the moved
	// cell's net neighbourhood after each applied move (pin counts and the
	// fresh lock both live on nets incident to the moved cell) and every
	// cell at pass start, when the locks reset.
	g2cache []int32
	g2stamp []int32
	cellRev []int32

	// initPass scratch: the active cells of the pass and their
	// per-direction seed gains, plus the counting-sort grouping of active
	// cells by source block used for the direction-major bucket fill.
	activeV  []int32
	gainBuf  []int32
	blkOff   []int32
	blkCells []int32

	// bucketN/bucketMaxG are the dimensions the direction buckets were
	// built with. Buckets survive direction-count changes (their arrays are
	// per-cell, not per-direction), but a pooled engine rebound to a graph
	// with a different cell count or gain range must drop them.
	bucketN, bucketMaxG int

	// snapFree is the snapshot-buffer freelist: retired solution snapshots
	// (restart stacks, incumbent-best) are refilled via SnapshotInto instead
	// of allocating one assignment copy per snapshot.
	snapFree []partition.Snapshot

	// st accumulates effort counters for the Improve call in flight.
	st *Stats
}

type moveRec struct {
	v        hypergraph.NodeID
	from, to partition.BlockID
}

// New creates an engine over p.
func New(p *partition.Partition, cfg Config) *Engine {
	e := &Engine{}
	e.Reset(p, cfg)
	return e
}

// Reset rebinds the engine to partition p under cfg, reusing every scratch
// buffer that still fits. The per-cell revision counters, lock stamps, and
// level-2 memo stamps are rewound to their initial state, so a pooled engine
// replays exactly the trajectory a fresh New(p, cfg) engine would, so a
// result never depends on which pooled engine its run drew.
func (e *Engine) Reset(p *partition.Partition, cfg Config) {
	e.p = p
	e.cfg = cfg.normalize()
	h := p.Hypergraph()
	if e.h != h {
		e.h = h
		e.szOf = nil // node sizes are per-graph; prepare rebuilds
	}
	n := h.NumNodes()
	if cap(e.locked) < n {
		e.locked = make([]bool, n)
		e.stamp = make([]int32, n)
	} else {
		e.locked = e.locked[:n]
		e.stamp = e.stamp[:n]
		clearBools(e.locked[:cap(e.locked)])
		clearInt32s(e.stamp[:cap(e.stamp)])
	}
	e.epoch = 0
	clearInt32s(e.g2stamp[:cap(e.g2stamp)])
	clearInt32s(e.cellRev[:cap(e.cellRev)])
	if e.st == nil {
		e.st = new(Stats) // discarded scratch outside Improve calls
	}
}

// Unbind drops the engine's partition reference so a pooled engine does not
// pin its last run's partition (which escapes to callers via core.Result).
// Graph-shaped caches — buckets, the size table — stay resident and are
// revalidated by the next Reset.
func (e *Engine) Unbind() { e.p = nil }

// clearBools and clearInt32s zero a buffer through its full capacity, so a
// buffer sliced down and back up between Resets cannot resurface stale
// values.
func clearBools(b []bool) {
	for i := range b {
		b[i] = false
	}
}

func clearInt32s(b []int32) {
	for i := range b {
		b[i] = 0
	}
}

// nb returns the number of active blocks.
func (e *Engine) nb() int { return len(e.blocks) }

// dirIndex maps an ordered (fromIdx, toIdx) pair to a dense direction index.
func (e *Engine) dirIndex(fi, ti int) int {
	if ti > fi {
		ti--
	}
	return fi*(e.nb()-1) + ti
}

// gain1 returns the first-level (exact Δcut) gain of moving v from F to T.
func (e *Engine) gain1(v hypergraph.NodeID, f, t partition.BlockID) int {
	g := 0
	for _, net := range e.h.NodeNets(v) {
		pf := e.p.PinCount(net, f)
		span := e.p.Span(net)
		if pf == 1 {
			// Net leaves F entirely; it becomes uncut only if its other
			// pins all sit in T.
			if span == 2 && e.p.PinCount(net, t) > 0 {
				g++
			}
		} else if span == 1 {
			// Net entirely inside F with other pins left behind: cut.
			g--
		}
	}
	return g
}

// gainPin returns −ΔT_SUM for moving v from F to T: the net reduction in
// terminal counts across the touched blocks (§5 future work (a)). Terminal
// deltas follow the same case analysis as the partition's incremental
// bookkeeping; pad relocation itself is T-neutral (−1 on F, +1 on T).
func (e *Engine) gainPin(v hypergraph.NodeID, f, t partition.BlockID) int {
	g := 0
	for _, net := range e.h.NodeNets(v) {
		pf := e.p.PinCount(net, f)
		pt := e.p.PinCount(net, t)
		span := e.p.Span(net)
		fromLeft := pf == 1
		toJoined := pt == 0
		spanAfter := span
		if fromLeft {
			spanAfter--
		}
		if toJoined {
			spanAfter++
		}
		wasCut, isCut := span >= 2, spanAfter >= 2
		switch {
		case wasCut && isCut:
			if fromLeft {
				g++
			}
			if toJoined {
				g--
			}
		case wasCut && !isCut:
			g += 2
		case !wasCut && isCut:
			g -= 2
		}
	}
	return g
}

// gainLevels computes Krishnamurthy gains λ_2..λ_L for moving v from F to
// T, restricted to nets with no pins outside {F, T}. λ_i counts nets whose
// F-side binding number is i minus nets whose T-side binding number is
// i−1; locked pins poison a side (binding number ∞, read from the O(1)
// netLock counters). The result is built in out (a reusable scratch
// buffer) and aliases it.
func (e *Engine) gainLevels(v hypergraph.NodeID, f, t partition.BlockID, maxLevel int, out []int) []int {
	out = out[:0]
	for lvl := 2; lvl <= maxLevel; lvl++ { // levels 2..maxLevel
		out = append(out, 0)
	}
	nb := e.nb()
	fi, ti := e.blkIdx[f], e.blkIdx[t]
	for _, net := range e.h.NodeNets(v) {
		if e.p.Span(net) > 2 {
			continue // pins in a third block, cheap O(1) pre-filter
		}
		pf := e.p.PinCount(net, f)
		pt := e.p.PinCount(net, t)
		if pf+pt != e.h.NetDegree(net) {
			continue
		}
		base := int(net) * nb
		freeF := e.netLock[base+fi] == 0
		freeT := e.netLock[base+ti] == 0
		for lvl := 2; lvl <= maxLevel; lvl++ {
			if freeF && pf == lvl {
				out[lvl-2]++
			}
			if freeT && pt == lvl-1 {
				out[lvl-2]--
			}
		}
	}
	return out
}

// cellGain returns the bucket (first-level) gain under the configured gain
// model.
func (e *Engine) cellGain(v hypergraph.NodeID, f, t partition.BlockID) int {
	if e.cfg.PinGain {
		return e.gainPin(v, f, t)
	}
	return e.gain1(v, f, t)
}

// gain2Of returns gain2 through the per-(cell, direction) memo. A move
// changes the level-2 gain of exactly the cells sharing a net with the
// moved cell, so deltaUpdate invalidates that
// neighbourhood and everything else stays cached across selectBest calls.
func (e *Engine) gain2Of(v hypergraph.NodeID, f, t partition.BlockID) int {
	s := e.blkIdx[t]
	if fi := e.blkIdx[f]; s > fi {
		s--
	}
	idx := int(v)*(e.nb()-1) + s
	if e.g2stamp[idx] == e.cellRev[v] {
		return int(e.g2cache[idx])
	}
	g := e.gain2(v, f, t)
	e.g2cache[idx] = int32(g)
	e.g2stamp[idx] = e.cellRev[v]
	return g
}

// gain2 returns the second-level Krishnamurthy gain of moving v from F to T,
// restricted to nets with no pins outside {F, T} (nets spanning other blocks
// cannot change cut state through F→T moves). Locked pins make a side
// unusable, following the classical binding-number definition; the lock
// tests read the per-(net, block) netLock counters, so the whole
// evaluation is O(1) per net — no pin scan.
func (e *Engine) gain2(v hypergraph.NodeID, f, t partition.BlockID) int {
	g := 0
	nb := e.nb()
	fi, ti := e.blkIdx[f], e.blkIdx[t]
	for _, net := range e.h.NodeNets(v) {
		if e.p.Span(net) > 2 {
			continue // pins in a third block, cheap O(1) pre-filter
		}
		pf := e.p.PinCount(net, f)
		pt := e.p.PinCount(net, t)
		if pf+pt != e.h.NetDegree(net) {
			continue
		}
		base := int(net) * nb
		if pf == 2 && e.netLock[base+fi] == 0 {
			g++
		}
		if pt == 1 && e.netLock[base+ti] == 0 {
			g--
		}
	}
	return g
}

// dirWindow is the feasible move region of §3.5 for one (F, T) direction,
// hoisted out of the per-candidate admissibility test. Block sizes are
// frozen at construction, which is valid for the duration of one selectBest
// scan of the direction (sizes only change when a move is applied).
type dirWindow struct {
	szMax int
	// Resource-vector fields, meaningful only when the engine's nres > 0:
	// packHead is the destination's packed dominant-resource headroom (see
	// the resPack field comment for the exactness argument), t the
	// destination block for the exact fallback test, and closed marks a
	// retired direction — some resource axis has zero headroom while every
	// candidate cell demands at least one unit of it, so no candidate can
	// be admissible and the selection loop skips the bucket entirely.
	packHead int32
	t        partition.BlockID
	closed   bool
}

// dirWindowFor freezes the §3.5 bounds for moves from F to T, reduced to
// the largest admissible cell size. The integer limits winUpInt/winLowInt
// (prepare) are exact equivalents of the float comparisons sizeAdmissible
// has always used: float64(sizeT+sz) > upLim rejects iff sizeT+sz > ⌊upLim⌋,
// and float64(sizeF−sz) < lowLim rejects iff sizeF−sz < ⌈lowLim⌉ — integer
// block sizes are exactly representable, so the reduction cannot flip a
// borderline decision.
func (e *Engine) dirWindowFor(f, t partition.BlockID) dirWindow {
	w := dirWindow{szMax: math.MaxInt, packHead: math.MaxInt32, t: t}
	if e.cfg.DisableWindows {
		return w
	}
	if t != e.remainder {
		w.szMax = e.winUpInt - e.p.Size(t)
		if e.nres > 0 {
			// Componentwise §3.5 upper windows for the extra resource
			// axes. The remainder destination stays exempt, mirroring the
			// scalar size window.
			head := int32(math.MaxInt32)
			for r := 0; r < e.nres; r++ {
				hr := e.resUpInt[r] - e.p.Res(t, r)
				if hr <= 0 {
					hr = 0
					if e.resMinDem[r] > 0 {
						w.closed = true // this axis's window closed for every candidate
					}
				}
				if ph := int32(int64(hr) * packScale / int64(e.p.ResCap(r))); ph < head {
					head = ph
				}
			}
			w.packHead = head
		}
	}
	if f != e.remainder {
		if v := e.p.Size(f) - e.winLowInt; v < w.szMax {
			w.szMax = v
		}
	}
	return w
}

// admits reports whether moving a cell of the given size stays inside the
// window.
func (w dirWindow) admits(sz int) bool { return sz <= w.szMax }

// packScale is the fixed-point scale of the packed dominant-resource
// bound. Demands and caps are int32-sized, so demand·packScale fits int64
// with room to spare; resPack saturates at MaxInt32 only for demands over
// 2000× the axis cap, far past anything a feasible run can see (and such a
// cell is rejected upstream as unsplittable).
const packScale = 1 << 20

// admitsCell applies the full move region to cell v: the scalar size
// window first (the only test scalar devices ever run), then the packed
// dominant-resource bound, falling back to the exact componentwise check
// on a packed reject so the packing never changes an outcome.
//
// The selection loops inline this by hand as
// win.admits(int(e.szOf[vi])) && (e.nres == 0 || e.admitsRes(win, vi))
// — as one function the inlined resAdmits fallback pushes it past the
// inlining budget, and the scalar hot path cannot afford a call per
// scanned candidate. admitsCell stays as the one-line spelling for the
// cold call sites and as documentation of the contract.
func (e *Engine) admitsCell(win dirWindow, vi int32) bool {
	return win.admits(int(e.szOf[vi])) && (e.nres == 0 || e.admitsRes(win, vi))
}

// admitsRes is the resource-vector half of admitsCell: the packed
// dominant-resource accept, then the exact componentwise fallback. Only
// meaningful (and only called) when e.nres > 0.
func (e *Engine) admitsRes(win dirWindow, vi int32) bool {
	if e.resPack[vi] <= win.packHead {
		return true
	}
	return e.resAdmits(hypergraph.NodeID(vi), win.t)
}

// resAdmits is the exact componentwise resource window test for moving
// cell v into block t.
func (e *Engine) resAdmits(v hypergraph.NodeID, t partition.BlockID) bool {
	for r := 0; r < e.nres; r++ {
		d := e.p.ResDemandOf(v, r)
		if d != 0 && e.p.Res(t, r)+d > e.resUpInt[r] {
			return false
		}
	}
	return true
}

// windowLimits derives the integer §3.5 limits from the current Improve
// context (allowOver, the active block set). prepare caches the result in
// winUpInt/winLowInt for the selection loop; those fields only go stale if
// the context changes without a prepare call, which production code never
// does.
func (e *Engine) windowLimits() (upInt, lowInt int) {
	smax := float64(e.p.Device().SMax())
	up := smax // strict feasibility once M is reached (§3.5 rule 1)
	if e.allowOver {
		up = smax * e.cfg.Windows.Upper
	}
	lower := e.cfg.Windows.LowerMulti
	if len(e.blocks) == 2 {
		lower = e.cfg.Windows.Lower2
	}
	return int(math.Floor(up)), int(math.Ceil(lower * smax))
}

// prepareRes freezes the per-axis integer resource limits and the packed
// per-cell demand bounds for one Improve call. Scalar devices only reset
// nres to zero; the O(n·R) packing runs for resource-vector devices alone.
func (e *Engine) prepareRes() {
	e.nres = e.p.NumRes()
	if e.nres == 0 {
		return
	}
	e.resUpInt = e.resUpInt[:0]
	e.resMinDem = e.resMinDem[:0]
	for r := 0; r < e.nres; r++ {
		up := float64(e.p.ResCap(r))
		if e.allowOver {
			up *= e.cfg.Windows.Upper
		}
		// ⌊up⌋ is exact for the same reason as winUpInt: demand totals are
		// integers, so total > up iff total > ⌊up⌋.
		e.resUpInt = append(e.resUpInt, int(math.Floor(up)))
		e.resMinDem = append(e.resMinDem, math.MaxInt)
	}
	n := e.h.NumNodes()
	if cap(e.resPack) < n {
		e.resPack = make([]int32, n)
	}
	e.resPack = e.resPack[:n]
	for v := 0; v < n; v++ {
		pack := int64(0)
		for r := 0; r < e.nres; r++ {
			d := e.p.ResDemandOf(hypergraph.NodeID(v), r)
			if d < e.resMinDem[r] {
				e.resMinDem[r] = d
			}
			c := int64(e.p.ResCap(r))
			if p := (int64(d)*packScale + c - 1) / c; p > pack {
				pack = p
			}
		}
		if pack > math.MaxInt32 {
			pack = math.MaxInt32
		}
		e.resPack[v] = int32(pack)
	}
}

// sizeAdmissible applies the feasible move region of §3.5 to moving a cell
// of the given size from F to T. Off the hot path (selectBest goes through
// dirWindowFor directly), it re-derives the limits from the engine's
// current fields rather than trusting the prepare-time cache.
func (e *Engine) sizeAdmissible(sz int, f, t partition.BlockID) bool {
	e.winUpInt, e.winLowInt = e.windowLimits()
	return e.dirWindowFor(f, t).admits(sz)
}

// initPass fills the direction buckets with every unlocked cell of every
// active block and clears locks. Seed gains are computed into gainBuf
// cell-major, then inserted direction-major.
func (e *Engine) initPass() {
	n := e.h.NumNodes()
	maxG := e.h.MaxDegree()
	if e.cfg.PinGain {
		maxG *= 2 // pin deltas reach ±2 per net
	}
	nd := e.nb() * (e.nb() - 1)
	if e.slab == nil || n != e.bucketN || maxG != e.bucketMaxG || e.slab.Dirs() < nd {
		// The slab is sized by cell count, gain range, and direction count;
		// an engine rebound to wider dimensions (pooled reuse, a PinGain
		// variant, more active blocks) rebuilds the whole family in one
		// allocation burst. Narrower passes reuse a prefix of the slab.
		e.slab = gain.NewSlab(nd, n, maxG)
		e.bucketN, e.bucketMaxG = n, maxG
	}
	if cap(e.buckets) < nd {
		e.buckets = make([]*gain.Bucket, nd)
	}
	e.buckets = e.buckets[:nd]
	for d := range e.buckets {
		e.buckets[d] = e.slab.Bucket(d)
		e.buckets[d].Clear()
	}
	for i := range e.locked {
		e.locked[i] = false
	}
	clear(e.netLock)
	for i := range e.cellRev {
		e.cellRev[i]++ // locks reset: every cached level-2 gain is stale
	}
	if cap(e.dirCand) < nd {
		e.dirCand = make([]dirCand, nd)
	}
	e.dirCand = e.dirCand[:nd]
	for i := range e.dirCand {
		e.dirCand[i] = dirCand{}
	}

	e.activeV = e.activeV[:0]
	if e.subset != nil {
		// Boundary-restricted pass: only the caller's candidate cells are
		// seeded into the buckets. Cells that left the active blocks since
		// the list was built are filtered here, per pass, so the list stays
		// valid across a whole Improve call.
		for _, v := range e.subset {
			if e.blkIdx[e.p.Block(v)] >= 0 {
				e.activeV = append(e.activeV, int32(v))
			}
		}
	} else {
		for v := 0; v < n; v++ {
			if e.blkIdx[e.p.Block(hypergraph.NodeID(v))] >= 0 {
				e.activeV = append(e.activeV, int32(v))
			}
		}
	}
	slots := e.nb() - 1
	need := len(e.activeV) * slots
	if cap(e.gainBuf) < need {
		e.gainBuf = make([]int32, need)
	}
	e.gainBuf = e.gainBuf[:need]

	if !e.cfg.PinGain {
		// First-level gains decompose per net: a span-1 net with other pins
		// contributes −1 to every direction, and a span-2 net with v as the
		// sole F pin contributes +1 to exactly one direction (its second
		// endpoint). One net sweep per cell therefore fills all k−1 slots —
		// O(deg) instead of O(k·deg) — which dominates initPass on the
		// large-k Table 6 devices. PinGain, whose per-net delta depends on
		// the destination, takes the per-direction cellGain path below.
		for i, vi := range e.activeV {
			v := hypergraph.NodeID(vi)
			b := e.p.Block(v)
			fi := e.blkIdx[b]
			acc := e.gainBuf[i*slots : (i+1)*slots]
			clearInt32s(acc)
			var common int32
			for _, net := range e.h.NodeNets(v) {
				switch e.p.Span(net) {
				case 1:
					if e.h.NetDegree(net) > 1 {
						common--
					}
				case 2:
					if e.p.PinCount(net, b) != 1 {
						continue
					}
					ob := e.p.OtherBlock(net, b)
					if si := e.blkIdx[ob]; si >= 0 {
						if si > fi {
							si--
						}
						acc[si]++
					}
				}
			}
			for s := range acc {
				acc[s] += common
			}
		}
	} else {
		for i, vi := range e.activeV {
			v := hypergraph.NodeID(vi)
			b := e.p.Block(v)
			fi := e.blkIdx[b]
			o := i * slots
			for ti := range e.blocks {
				if ti == fi {
					continue
				}
				e.gainBuf[o] = int32(e.cellGain(v, b, e.blocks[ti]))
				o++
			}
		}
	}

	// Insert direction-major: one bucket's list arrays stay hot while all of
	// its cells stream in, instead of touching k−1 buckets per cell. LIFO
	// lists only order cells within one direction, and cells arrive in the
	// same ascending order under either loop nesting, so every seeded gain
	// list is identical to the cell-major order's. A counting sort groups
	// the active cells by source block, keeping ascending order per group.
	nbk := e.nb()
	if cap(e.blkOff) < nbk+1 {
		e.blkOff = make([]int32, nbk+1)
	}
	e.blkOff = e.blkOff[:nbk+1]
	for i := range e.blkOff {
		e.blkOff[i] = 0
	}
	if cap(e.blkCells) < len(e.activeV) {
		e.blkCells = make([]int32, len(e.activeV))
	}
	e.blkCells = e.blkCells[:len(e.activeV)]
	for _, vi := range e.activeV {
		e.blkOff[e.blkIdx[e.p.Block(hypergraph.NodeID(vi))]+1]++
	}
	for i := 1; i <= nbk; i++ {
		e.blkOff[i] += e.blkOff[i-1]
	}
	// Fill with blkOff[fi] as a moving cursor; afterwards blkOff[fi] is the
	// END of group fi, so groups are recovered as [prev end, blkOff[fi]).
	for i, vi := range e.activeV {
		fi := e.blkIdx[e.p.Block(hypergraph.NodeID(vi))]
		e.blkCells[e.blkOff[fi]] = int32(i)
		e.blkOff[fi]++
	}
	start := int32(0)
	for fi := 0; fi < nbk; fi++ {
		end := e.blkOff[fi]
		group := e.blkCells[start:end]
		start = end
		base := fi * slots
		for s := 0; s < slots; s++ {
			bk := e.buckets[base+s]
			for _, i := range group {
				bk.Insert(e.activeV[i], int(e.gainBuf[int(i)*slots+s]))
			}
			e.st.BucketOps += len(group)
		}
	}
}

// candidate is a tentative best move.
type candidate struct {
	v     hypergraph.NodeID
	from  partition.BlockID
	to    partition.BlockID
	g1    int
	g2    int
	hasG2 bool
	lv    []int // levels 2..GainLevels, computed lazily
	bal   int   // S_FROM - S_TO at selection time
}

// dirCand is the cached local winner of one direction: the candidate the
// direction would contribute to a full selection scan, computed without
// reference to any other direction. The entry stays valid until a move
// dirties the direction — a clean direction's bucket, windows, balance,
// locks, and level-2 gains are all untouched, so its local winner cannot
// change — and while it holds, selectBest reads the winner back in O(1)
// instead of rescanning the gain list. On the large-k Table 6 devices a
// move dirties only ~4k of the k·(k−1) directions, so this removes almost
// the entire selection scan.
type dirCand struct {
	valid       bool
	has         bool // direction contributes a candidate
	v           int32
	g1, g2, bal int32
}

// selectBest returns the best admissible move under the ordering (g1, g2,
// S_FROM−S_TO), or deeper Krishnamurthy levels in place of g2 when
// GainLevels ≥ 3. Returns ok=false when no admissible move exists. The
// published (g1, g2, bal) order goes through the per-direction candidate
// cache; every other order takes the full scan.
func (e *Engine) selectBest(scratch []int32) (candidate, bool) {
	if e.cfg.UseLevel2 && e.cfg.GainLevels < 3 {
		return e.selectBestCached(scratch)
	}
	return e.selectBestScan(scratch)
}

// selectBestScan scans all directions for the best admissible move under
// the configured comparator.
func (e *Engine) selectBestScan(scratch []int32) (candidate, bool) {
	var best candidate
	found := false
	better := func(c candidate) bool {
		if !found {
			return true
		}
		if c.g1 != best.g1 {
			return c.g1 > best.g1
		}
		if e.cfg.GainLevels >= 3 {
			// c is always a fresh candidate (lv nil on entry) and best.lv
			// is only ever written here, so the two engine scratch buffers
			// never alias: lvCand backs c.lv, lvBest backs best.lv.
			if c.lv == nil {
				e.lvCand = e.gainLevels(c.v, c.from, c.to, e.cfg.GainLevels, e.lvCand)
				c.lv = e.lvCand
			}
			if best.lv == nil {
				e.lvBest = e.gainLevels(best.v, best.from, best.to, e.cfg.GainLevels, e.lvBest)
				best.lv = e.lvBest
			}
			for i := range c.lv {
				if c.lv[i] != best.lv[i] {
					return c.lv[i] > best.lv[i]
				}
			}
		} else if e.cfg.UseLevel2 {
			if !c.hasG2 {
				c.g2 = e.gain2Of(c.v, c.from, c.to)
				c.hasG2 = true
			}
			if !best.hasG2 {
				best.g2 = e.gain2Of(best.v, best.from, best.to)
				best.hasG2 = true
			}
			if c.g2 != best.g2 {
				return c.g2 > best.g2
			}
		}
		return c.bal > best.bal
	}
	for fi := range e.blocks {
		for ti := range e.blocks {
			if ti == fi {
				continue
			}
			d := e.dirIndex(fi, ti)
			bk := e.buckets[d]
			topG, ok := bk.MaxGain()
			if !ok {
				continue
			}
			if found && topG < best.g1 {
				continue // cannot beat the current best on g1
			}
			f, t := e.blocks[fi], e.blocks[ti]
			bal := e.p.Size(f) - e.p.Size(t)
			win := e.dirWindowFor(f, t)
			if win.closed {
				continue // retired: a resource window closed for every candidate
			}
			// Examine the top gain list first (bounded), then descend
			// until one admissible cell is found.
			scratch = scratch[:0]
			scratch = bk.TopN(tieWidth, scratch)
			examined := false
			for _, vi := range scratch {
				v := hypergraph.NodeID(vi)
				e.st.MovesEvaluated++
				if !win.admits(int(e.szOf[vi])) || (e.nres > 0 && !e.admitsRes(win, vi)) {
					e.st.MovesGated++
					continue
				}
				examined = true
				c := candidate{v: v, from: f, to: t, g1: topG, bal: bal}
				if better(c) {
					if !c.hasG2 && e.cfg.UseLevel2 {
						c.g2 = e.gain2Of(c.v, c.from, c.to)
						c.hasG2 = true
					}
					best, found = c, true
				}
			}
			if !examined {
				// Whole top list inadmissible: descend in gain order for
				// the first admissible cell (bounded scan).
				limit := 64
				bk.ScanFrom(func(vi int32, g int) bool {
					limit--
					if limit < 0 {
						return false
					}
					if found && g < best.g1 {
						return false
					}
					v := hypergraph.NodeID(vi)
					e.st.MovesEvaluated++
					if !win.admits(int(e.szOf[vi])) || (e.nres > 0 && !e.admitsRes(win, vi)) {
						e.st.MovesGated++
						return true
					}
					c := candidate{v: v, from: f, to: t, g1: g, bal: bal}
					if better(c) {
						best, found = c, true
					}
					return false // direction contributes its best admissible only
				})
			}
		}
	}
	return best, found
}

// selectBestCached is selectBest for the published (g1, g2, bal) selection
// order, backed by the per-direction candidate cache: clean directions
// contribute their cached local winner in a few loads, dirty directions are
// re-evaluated once. Directions are visited in the same fixed (source,
// destination) order as the full scan and a strict key improvement is
// required to take the lead, so the selected move is identical — the
// differential test drives both paths over random instances to prove it.
func (e *Engine) selectBestCached(scratch []int32) (candidate, bool) {
	var bv, bg1, bg2, bbal int32
	bfi, bti := 0, 0
	found := false
	nb := e.nb()
	d := 0
	for fi := 0; fi < nb; fi++ {
		for ti := 0; ti < nb; ti++ {
			if ti == fi {
				continue
			}
			c := &e.dirCand[d]
			if !c.valid {
				if found {
					// A dirty direction whose bucket's best gain is strictly
					// below the incumbent's g1 cannot take the lead (its
					// local winner has g1 ≤ MaxGain, and the descent fallback
					// only goes lower), so defer its recompute: it stays
					// dirty and is probed again — one MaxGain load — on the
					// next scan. The selected move is unchanged.
					if mg, ok := e.buckets[d].MaxGain(); ok && int32(mg) < bg1 {
						d++
						continue
					}
				}
				scratch = e.computeDirCand(d, fi, ti, scratch)
			}
			d++
			if !c.has {
				continue
			}
			if found {
				if c.g1 != bg1 {
					if c.g1 < bg1 {
						continue
					}
				} else if c.g2 != bg2 {
					if c.g2 < bg2 {
						continue
					}
				} else if c.bal <= bbal {
					continue
				}
			}
			bv, bg1, bg2, bbal = c.v, c.g1, c.g2, c.bal
			bfi, bti = fi, ti
			found = true
		}
	}
	if !found {
		return candidate{}, false
	}
	return candidate{v: hypergraph.NodeID(bv), from: e.blocks[bfi], to: e.blocks[bti],
		g1: int(bg1), g2: int(bg2), hasG2: true, bal: int(bbal)}, true
}

// computeDirCand evaluates direction d (blocks[fi] → blocks[ti]) in
// isolation and caches its local winner: the admissible top-list cell with
// the highest level-2 gain (earliest on ties — g1 and balance are direction
// constants), or, when the whole top list is gated, the first admissible
// cell within a bounded descent of the gain list. The computation never
// reads the incumbent best of the surrounding scan, so the entry is exactly
// the contribution a full scan would extract from this direction, for any
// incumbent, as long as the direction stays clean.
func (e *Engine) computeDirCand(d, fi, ti int, scratch []int32) []int32 {
	c := &e.dirCand[d]
	*c = dirCand{valid: true}
	bk := e.buckets[d]
	topG, ok := bk.MaxGain()
	if !ok {
		return scratch
	}
	f, t := e.blocks[fi], e.blocks[ti]
	bal := int32(e.p.Size(f) - e.p.Size(t))
	win := e.dirWindowFor(f, t)
	if win.closed {
		return scratch // retired: the direction contributes nothing
	}
	scratch = scratch[:0]
	scratch = bk.TopN(tieWidth, scratch)
	for _, vi := range scratch {
		e.st.MovesEvaluated++
		if !win.admits(int(e.szOf[vi])) || (e.nres > 0 && !e.admitsRes(win, vi)) {
			e.st.MovesGated++
			continue
		}
		g2 := int32(e.gain2Of(hypergraph.NodeID(vi), f, t))
		if !c.has || g2 > c.g2 {
			c.has = true
			c.v = vi
			c.g1 = int32(topG)
			c.g2 = g2
			c.bal = bal
		}
	}
	if c.has {
		return scratch
	}
	// Whole top list inadmissible: descend in gain order for the first
	// admissible cell (bounded scan, same 64-entry window the full scan
	// uses — the bucket is unchanged while the direction is clean, so the
	// window covers the same cells).
	limit := 64
	bk.ScanFrom(func(vi int32, g int) bool {
		limit--
		if limit < 0 {
			return false
		}
		e.st.MovesEvaluated++
		if !win.admits(int(e.szOf[vi])) || (e.nres > 0 && !e.admitsRes(win, vi)) {
			e.st.MovesGated++
			return true
		}
		c.has = true
		c.v = vi
		c.g1 = int32(g)
		c.g2 = int32(e.gain2Of(hypergraph.NodeID(vi), f, t))
		c.bal = bal
		return false // direction contributes its first admissible only
	})
	return scratch
}

// cutContrib returns the contribution of one net to the cut gain of a cell
// sitting in block A, moving toward a destination block, given the net's
// pin count in A, its pin count in the destination, and its span. It
// mirrors the per-net case analysis of gain1 exactly (including the
// else-chain: a single-pin net has pcA == 1 and span == 1 and contributes
// nothing).
func cutContrib(pcA, pcDest, span int32) int32 {
	if pcA == 1 {
		if span == 2 && pcDest > 0 {
			return 1
		}
		return 0
	}
	if span == 1 {
		return -1
	}
	return 0
}

// pinContrib is cutContrib's counterpart for the PinGain model, mirroring
// the per-net body of gainPin.
func pinContrib(pcA, pcDest, span int32) int32 {
	fromLeft := pcA == 1
	toJoined := pcDest == 0
	spanAfter := span
	if fromLeft {
		spanAfter--
	}
	if toJoined {
		spanAfter++
	}
	wasCut, isCut := span >= 2, spanAfter >= 2
	switch {
	case wasCut && isCut:
		var g int32
		if fromLeft {
			g++
		}
		if toJoined {
			g--
		}
		return g
	case wasCut && !isCut:
		return 2
	case !wasCut && isCut:
		return -2
	}
	return 0
}

// applyMove commits the move, locks the cell, and updates the gains of
// affected unlocked cells.
//
// The default path is the incremental delta-gain kernel: for every net
// incident to the moved cell it re-evaluates — from the net's pin-count
// transition alone — the per-net gain contribution of each unlocked
// neighbour, in only the directions that can change. For both gain models
// the per-net contribution of a cell in block A toward block B is a
// function of (pins(A), pins(B), span); a move F→T changes the pin counts
// of F and T only, so contributions change only where A ∈ {F, T} (source
// counts changed) or B ∈ {F, T} (destination counts changed). A direction
// between two uninvolved blocks cannot change: the net always has a pin on
// the moved cell (in F before, T after), which rules out the span == 1 and
// span == 2 configurations those contributions would need to differ. Span
// transitions are captured exactly by the partition's NetDelta trace, so
// no fallback recompute is needed; the tests check every maintained gain
// against cellGain after every move.
func (e *Engine) applyMove(c candidate) {
	v := c.v
	fi := e.blkIdx[c.from]
	// Remove v from its outgoing buckets.
	for ti := range e.blocks {
		if ti == fi {
			continue
		}
		e.buckets[e.dirIndex(fi, ti)].Remove(int32(v))
		e.st.BucketOps++
	}
	// Dirty the candidate cache: only directions whose source or
	// destination is a move endpoint see their buckets, sizes, locks, or
	// level-2 gains change (the same locality argument the delta kernel
	// rests on), so only those local winners are dropped.
	if len(e.dirCand) > 0 {
		ti := e.blkIdx[c.to]
		for j := range e.blocks {
			if j != fi {
				e.dirCand[e.dirIndex(fi, j)] = dirCand{}
				e.dirCand[e.dirIndex(j, fi)] = dirCand{}
			}
			if j != ti {
				e.dirCand[e.dirIndex(ti, j)] = dirCand{}
				e.dirCand[e.dirIndex(j, ti)] = dirCand{}
			}
		}
	}
	e.netBuf = e.p.MoveTrace(v, c.to, e.netBuf[:0])
	e.locked[v] = true
	e.lockNets(v, e.blkIdx[c.to])
	e.journal = append(e.journal, moveRec{v: v, from: c.from, to: c.to})
	e.deltaUpdate(v, c.from, c.to)
}

// subsetExcluded reports whether u lies outside the restricted move set of
// an ImproveSubsetCtx call. Excluded cells are absent from the gain
// buckets, so the delta update must skip them exactly as it skips locked
// cells. Always false for whole-graph improves.
func (e *Engine) subsetExcluded(u hypergraph.NodeID) bool {
	return e.subset != nil && !e.inSubset[u]
}

// lockNets records v's pins as locked in active block index ti on every net
// of v. Locked cells never move again within the pass, so counting at lock
// time keeps netLock exact: netLock[net*nb+bi] equals the number of locked
// pins of net residing in blocks[bi].
func (e *Engine) lockNets(v hypergraph.NodeID, ti int) {
	nb := e.nb()
	for _, net := range e.h.NodeNets(v) {
		e.netLock[int(net)*nb+ti]++
	}
}

// deltaUpdate folds the netBuf trace of a just-applied move v: from→to
// into the gain buckets. Phase 1 accumulates per-(cell, direction) gain
// deltas; phase 2 applies each non-zero delta with a single bucket
// adjustment. Cells are processed in first-touch order and directions in
// ascending order, so the LIFO order of every gain list is a function of
// the move sequence alone.
func (e *Engine) deltaUpdate(v hypergraph.NodeID, from, to partition.BlockID) {
	nb := e.nb()
	slots := nb - 1
	fi := e.blkIdx[from]
	ti := e.blkIdx[to]
	contrib := cutContrib
	if e.cfg.PinGain {
		contrib = pinContrib
	}
	e.epoch++
	e.touched = e.touched[:0]
	for i, net := range e.h.NodeNets(v) {
		nd := &e.netBuf[i]
		pcFb, pcTb := nd.FromPins, nd.ToPins
		pcFa, pcTa := pcFb-1, pcTb+1
		spanB, spanA := nd.SpanBefore, nd.SpanAfter
		if spanB == spanA && pcFb >= 3 && pcTb >= 2 {
			// No critical transition: the source keeps ≥2 pins, the
			// destination already had ≥2, and the span is unchanged, so
			// both contrib models return identical values before and
			// after for every pin and direction. Only the level-2 memo
			// goes stale (pin counts and v's lock changed on this net):
			// stamp the pins so the flush loop bumps their revision.
			for _, u := range e.h.NetPins(net) {
				if u == v || e.locked[u] || e.subsetExcluded(u) {
					continue
				}
				if e.stamp[u] != e.epoch {
					e.stamp[u] = e.epoch
					e.touched = append(e.touched, int32(u))
				}
			}
			continue
		}
		for _, u := range e.h.NetPins(net) {
			if u == v || e.locked[u] || e.subsetExcluded(u) {
				continue
			}
			if e.stamp[u] != e.epoch {
				e.stamp[u] = e.epoch
				e.touched = append(e.touched, int32(u))
			}
			b := e.p.Block(u)
			ufi := e.blkIdx[b]
			if ufi < 0 {
				continue
			}
			base := int(u) * slots
			switch b {
			case from:
				if pcFb >= 3 && spanB == spanA {
					continue // pcA stays ≥2 on both sides: no critical transition
				}
				// Source-side pin count changed: every direction shifts.
				for tj := 0; tj < nb; tj++ {
					if tj == ufi {
						continue
					}
					s := tj
					if tj > ufi {
						s--
					}
					var before, after int32
					if tj == ti {
						before = contrib(pcFb, pcTb, spanB)
						after = contrib(pcFa, pcTa, spanA)
					} else {
						pcD := int32(e.p.PinCount(net, e.blocks[tj]))
						before = contrib(pcFb, pcD, spanB)
						after = contrib(pcFa, pcD, spanA)
					}
					e.accum[base+s] += after - before
				}
			case to:
				if pcTb >= 2 && spanB == spanA {
					continue // pcA stays ≥2 on both sides: no critical transition
				}
				for tj := 0; tj < nb; tj++ {
					if tj == ufi {
						continue
					}
					s := tj
					if tj > ufi {
						s--
					}
					var before, after int32
					if tj == fi {
						before = contrib(pcTb, pcFb, spanB)
						after = contrib(pcTa, pcFa, spanA)
					} else {
						pcD := int32(e.p.PinCount(net, e.blocks[tj]))
						before = contrib(pcTb, pcD, spanB)
						after = contrib(pcTa, pcD, spanA)
					}
					e.accum[base+s] += after - before
				}
			default:
				// Uninvolved source block: only the directions toward the
				// move's endpoints can change, and only when the move
				// created or destroyed a side — otherwise the pcDest>0 /
				// pcDest==0 flags are identical before and after. A span
				// swap (source's last pin leaves while the destination
				// joins, pcFb==1 ∧ pcTb==0) keeps the span yet flips both
				// flags, so it must not take the shortcut.
				if spanB == spanA && pcFb > 1 {
					continue
				}
				pcA := int32(e.p.PinCount(net, b))
				s := fi
				if fi > ufi {
					s--
				}
				e.accum[base+s] += contrib(pcA, pcFa, spanA) - contrib(pcA, pcFb, spanB)
				s = ti
				if ti > ufi {
					s--
				}
				e.accum[base+s] += contrib(pcA, pcTa, spanA) - contrib(pcA, pcTb, spanB)
			}
		}
	}

	e.flushTouched(from, to, fi, ti, slots)
}

// flushTouched drains the accumulated gain deltas of every dirty cell into
// the buckets, in first-touch order, restoring accum's all-zero invariant,
// and bumps each dirty cell's level-2 memo revision.
func (e *Engine) flushTouched(from, to partition.BlockID, fi, ti, slots int) {
	for _, ui := range e.touched {
		u := hypergraph.NodeID(ui)
		e.cellRev[u]++ // level-2 memo: neighbourhood changed
		b := e.p.Block(u)
		ufi := e.blkIdx[b]
		if ufi < 0 {
			continue
		}
		base := int(ui) * slots
		row := ufi * slots
		if b == from || b == to {
			for s := 0; s < slots; s++ {
				if d := e.accum[base+s]; d != 0 {
					e.accum[base+s] = 0
					e.buckets[row+s].Adjust(ui, int(d))
					e.st.BucketOps++
				}
			}
			continue
		}
		// Each direction has its own bucket, so the order of the two
		// adjustments does not matter.
		for _, tj := range [2]int{fi, ti} {
			s := tj
			if tj > ufi {
				s--
			}
			if d := e.accum[base+s]; d != 0 {
				e.accum[base+s] = 0
				e.buckets[row+s].Adjust(ui, int(d))
				e.st.BucketOps++
			}
		}
	}
}

// stackEntry records a candidate restart solution as a journal prefix.
type stackEntry struct {
	key       partition.Key
	dist      float64 // infeasibility distance, ranking for the infeasible stack
	prefixLen int
	snap      partition.Snapshot
	hasSnap   bool
}

// key evaluates the solution-comparison key under the configured objective.
func (e *Engine) key() partition.Key {
	if e.cfg.CutObjective {
		return partition.Key{F: e.p.CountFeasible(), D: float64(e.p.Cut())}
	}
	return e.p.Key(e.cfg.Cost, e.remainder, e.m)
}

// runPass executes one FM pass over the active blocks: moves cells until no
// admissible move remains, then rolls back to the best prefix. When collect
// is non-nil, every prefix whose key improves on the best-so-far (semi) or
// whose distance improves (infeasible) is offered to the stacks. A
// cancelled ctx ends the pass early; the rollback to the best prefix still
// runs, so the partition is left consistent.
func (e *Engine) runPass(ctx context.Context, collect *stacks) (improved bool, moves int) {
	e.initPass()
	e.journal = e.journal[:0]
	start := e.key()
	best := start
	bestLen := 0
	if cap(e.topScratch) < tieWidth {
		e.topScratch = make([]int32, 0, tieWidth)
	}
	scratch := e.topScratch

	for {
		// Poll cancellation every 64 applied moves so even the long
		// first passes on big circuits abort promptly.
		if moves&63 == 0 && ctx.Err() != nil {
			break
		}
		c, ok := e.selectBest(scratch)
		if !ok {
			break
		}
		e.applyMove(c)
		moves++
		key := e.key()
		if key.Better(best) {
			best = key
			bestLen = len(e.journal)
		}
		if collect != nil {
			collect.offer(e.p.NumBlocks(), key, len(e.journal))
		}
		if e.cfg.EarlyStop > 0 && len(e.journal)-bestLen > e.cfg.EarlyStop {
			break // §5 future work (b): stop drifting from the feasible region
		}
	}

	// Materialize stack snapshots before rolling back (entries reference
	// journal prefixes of this pass).
	if collect != nil {
		collect.materialize(e.p, e.journal, e.takeSnap)
	}

	// Roll back to the best prefix.
	for i := len(e.journal) - 1; i >= bestLen; i-- {
		e.p.Move(e.journal[i].v, e.journal[i].from)
	}
	return best.Better(start), moves
}

// stacks holds the two restart stacks of §3.6.
type stacks struct {
	depth  int
	cost   partition.CostParams
	semi   []stackEntry
	infeas []stackEntry
}

// offer records a prefix in the appropriate stack if it ranks well enough.
// Snapshots are not taken here; materialize replays the journal once at the
// end of the collecting pass. The solution class is derived from the key's
// feasible-block count (k − F ≥ 2 ⇔ infeasible), which holds under both
// the §3.4 key and the CutObjective key — no partition scan needed.
func (s *stacks) offer(k int, key partition.Key, prefixLen int) {
	if s.depth == 0 {
		return
	}
	entry := stackEntry{key: key, dist: key.D, prefixLen: prefixLen}
	if k-key.F >= 2 {
		s.infeas = insertRanked(s.infeas, entry, s.depth, func(a, b stackEntry) bool {
			return a.dist < b.dist
		})
	} else {
		s.semi = insertRanked(s.semi, entry, s.depth, func(a, b stackEntry) bool {
			return a.key.Better(b.key)
		})
	}
}

// insertRanked keeps list sorted best-first, bounded to depth, replacing the
// worst entry when full. Entries with identical rank keys are deduplicated.
func insertRanked(list []stackEntry, ent stackEntry, depth int, less func(a, b stackEntry) bool) []stackEntry {
	for _, ex := range list {
		if ex.key == ent.key {
			return list // duplicate solution quality: keep the earlier one
		}
	}
	pos := sort.Search(len(list), func(i int) bool { return less(ent, list[i]) })
	if pos == len(list) && len(list) >= depth {
		return list
	}
	list = append(list, stackEntry{})
	copy(list[pos+1:], list[pos:])
	list[pos] = ent
	if len(list) > depth {
		list = list[:depth]
	}
	return list
}

// materialize converts journal-prefix entries into real snapshots by
// replaying the pass journal from its start state. Called exactly once, at
// the end of the collecting pass, while the journal is fully applied. take
// snapshots the partition's current state (the engine passes takeSnap, so
// the buffers come from the freelist).
func (s *stacks) materialize(p *partition.Partition, journal []moveRec, take func() partition.Snapshot) {
	all := append(append([]*stackEntry{}, refs(s.semi)...), refs(s.infeas)...)
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].prefixLen > all[j].prefixLen })
	// Walk backwards from the fully-applied state, undoing moves and
	// snapshotting at each requested prefix length.
	pos := len(journal)
	for _, ent := range all {
		for pos > ent.prefixLen {
			pos--
			p.Move(journal[pos].v, journal[pos].from)
		}
		ent.snap = take()
		ent.hasSnap = true
	}
	// Reapply to return to the fully-applied state runPass expects.
	for ; pos < len(journal); pos++ {
		p.Move(journal[pos].v, journal[pos].to)
	}
}

func refs(list []stackEntry) []*stackEntry {
	out := make([]*stackEntry, len(list))
	for i := range list {
		out[i] = &list[i]
	}
	return out
}

// Improve runs the full §3.6 improvement procedure over the given active
// blocks: a pass series from the current solution (collecting restart
// solutions during the first pass), then a pass series from each stacked
// semi-feasible and infeasible solution, finally restoring the best solution
// seen. remainder designates the current remainder block (NoBlock for
// contexts without one), and m is the device lower bound M.
func (e *Engine) Improve(blocks []partition.BlockID, remainder partition.BlockID, m int) Stats {
	st, _ := e.ImproveCtx(context.Background(), blocks, remainder, m)
	return st
}

// prepare initializes the per-Improve state: the active block set and its
// index, the move-window context, and every scratch buffer the pass loop
// reuses. Split out of ImproveCtx so tests can drive individual passes.
func (e *Engine) prepare(blocks []partition.BlockID, remainder partition.BlockID, m int) {
	e.blocks = blocks
	e.remainder = remainder
	e.m = m
	e.allowOver = e.p.NumBlocks() <= m
	e.winUpInt, e.winLowInt = e.windowLimits()
	e.prepareRes()
	if cap(e.blkIdx) < e.p.NumBlocks() {
		e.blkIdx = make([]int, e.p.NumBlocks())
	}
	e.blkIdx = e.blkIdx[:e.p.NumBlocks()]
	for i := range e.blkIdx {
		e.blkIdx[i] = -1
	}
	for i, b := range blocks {
		e.blkIdx[b] = i
	}
	// Size the delta-gain accumulator: one pending delta per (cell,
	// outgoing-direction slot). It is all-zero between moves by invariant;
	// re-zero defensively because the slot layout changes with the active
	// block count.
	slots := len(blocks) - 1
	if need := e.h.NumNodes() * slots; cap(e.accum) < need {
		e.accum = make([]int32, need)
	} else {
		e.accum = e.accum[:need]
		for i := range e.accum {
			e.accum[i] = 0
		}
	}
	if cap(e.touched) < e.h.NumNodes() {
		e.touched = make([]int32, 0, e.h.NumNodes())
	}
	// Level-2 gain memo, laid out like accum. An entry is trusted when its
	// stamp matches its cell's revision, and initPass advances every
	// revision past the stamps written for that cell. The slot layout
	// changes with the active block count, though, so a stamp written for
	// one cell can sit at an index that now belongs to another cell with a
	// matching revision: zero the stamps, as for accum.
	if need := e.h.NumNodes() * slots; cap(e.g2cache) < need {
		e.g2cache = make([]int32, need)
		e.g2stamp = make([]int32, need)
	} else {
		e.g2cache = e.g2cache[:need]
		e.g2stamp = e.g2stamp[:need]
		clear(e.g2stamp)
	}
	if cap(e.cellRev) < e.h.NumNodes() {
		e.cellRev = make([]int32, e.h.NumNodes())
	}
	e.cellRev = e.cellRev[:e.h.NumNodes()]
	if e.netBuf == nil {
		// Must be non-nil even when empty: MoveTrace records nothing into
		// a nil buffer.
		e.netBuf = make([]partition.NetDelta, 0, e.h.MaxDegree())
	}
	if len(e.szOf) != e.h.NumNodes() {
		e.szOf = make([]int32, e.h.NumNodes())
		for v := range e.szOf {
			e.szOf[v] = int32(e.h.SizeOf(hypergraph.NodeID(v)))
		}
	}
	// Locked-pin counters, one row per net over the active blocks. initPass
	// zeroes them each pass; sizing here re-zeroes too because the row
	// stride follows the active block count.
	if need := e.h.NumNets() * len(blocks); cap(e.netLock) < need {
		e.netLock = make([]int32, need)
	} else {
		e.netLock = e.netLock[:need]
		clear(e.netLock)
	}
}

// ImproveSubsetCtx is ImproveCtx restricted to a candidate cell set: only
// the listed cells (those currently in an active block — the filter is
// re-applied every pass) are seeded into the gain buckets, instead of every
// cell of every active block. Multilevel refinement uses it to run bounded
// FM passes over boundary cells only, where activating a full million-node
// level per block pair would be quadratic. cells must be sorted by ID and
// duplicate-free — bucket seeding order is part of the deterministic
// trajectory contract. The restriction clears when the call returns.
//
// Moves remain exact: gain maintenance, windows, and rollback all operate
// on the real partition; restricting the candidate set only narrows which
// cells may move.
func (e *Engine) ImproveSubsetCtx(ctx context.Context, blocks []partition.BlockID, remainder partition.BlockID, m int, cells []hypergraph.NodeID) (Stats, error) {
	e.subset = cells
	n := e.h.NumNodes()
	if cap(e.inSubset) < n {
		e.inSubset = make([]bool, n)
	}
	e.inSubset = e.inSubset[:n]
	for _, v := range cells {
		e.inSubset[v] = true
	}
	defer func() {
		for _, v := range cells {
			e.inSubset[v] = false
		}
		e.subset = nil
	}()
	return e.ImproveCtx(ctx, blocks, remainder, m)
}

// ImproveCtx is Improve with cancellation: the pass loop polls ctx and
// aborts promptly when it is cancelled or its deadline passes, restoring
// the best solution seen so far (the partition is always left consistent)
// and returning ctx's error alongside the partial Stats.
func (e *Engine) ImproveCtx(ctx context.Context, blocks []partition.BlockID, remainder partition.BlockID, m int) (Stats, error) {
	var st Stats
	if len(blocks) < 2 {
		return st, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return st, err // don't even fill the buckets on a dead context
	}
	e.st = &st
	defer func() { e.st = new(Stats) }()
	e.prepare(blocks, remainder, m)

	collect := &stacks{depth: e.cfg.StackDepth, cost: e.cfg.Cost}
	startKey := e.key()

	series := func(col *stacks) {
		for pass := 0; pass < e.cfg.MaxPasses; pass++ {
			var c *stacks
			if col != nil && pass == 0 {
				c = col
			}
			improved, moves := e.runPass(ctx, c)
			st.Passes++
			st.MovesApplied += moves
			if !improved || ctx.Err() != nil {
				break
			}
		}
	}

	series(collect)
	bestKey := e.key()
	bestSnap := e.takeSnap()

	restart := func(label string, ents []stackEntry) {
		for _, ent := range ents {
			if !ent.hasSnap {
				continue
			}
			if ctx.Err() != nil {
				return
			}
			e.p.Restore(ent.snap)
			st.Restarts++
			e.cfg.Obs.Emit(obs.Event{Type: obs.StackRestart, Label: label, Moves: ent.prefixLen})
			series(nil)
			if key := e.key(); key.Better(bestKey) {
				bestKey = key
				e.giveSnap(bestSnap)
				bestSnap = e.takeSnap()
				e.cfg.Obs.Emit(obs.Event{Type: obs.SolutionAccepted, Label: label})
			} else {
				e.cfg.Obs.Emit(obs.Event{Type: obs.SolutionRejected, Label: label})
			}
		}
	}
	restart("semi", collect.semi)
	restart("infeasible", collect.infeas)

	e.p.Restore(bestSnap)
	e.giveSnap(bestSnap)
	retireSnaps(e, collect.semi)
	retireSnaps(e, collect.infeas)
	st.Improved = bestKey.Better(startKey)
	return st, ctx.Err()
}

// retireSnaps returns the stack entries' snapshot buffers to the engine's
// freelist once the restart series are done with them.
func retireSnaps(e *Engine, ents []stackEntry) {
	for i := range ents {
		if ents[i].hasSnap {
			e.giveSnap(ents[i].snap)
			ents[i] = stackEntry{}
		}
	}
}

// takeSnap snapshots the current partition into a buffer drawn from the
// snapshot freelist (or a fresh one when the freelist is dry).
func (e *Engine) takeSnap() partition.Snapshot {
	var buf partition.Snapshot
	if n := len(e.snapFree); n > 0 {
		buf = e.snapFree[n-1]
		e.snapFree = e.snapFree[:n-1]
	}
	return e.p.SnapshotInto(buf)
}

// giveSnap retires a snapshot's buffer to the freelist. The caller must not
// use the snapshot afterwards: the next takeSnap overwrites it.
func (e *Engine) giveSnap(s partition.Snapshot) {
	e.snapFree = append(e.snapFree, s)
}
