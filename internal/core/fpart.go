// Package core implements FPART, the multi-way FPGA netlist partitioning
// algorithm of Krupnova & Saucier (DATE 1999).
//
// FPART finds a feasible partition of a circuit hypergraph into the minimum
// number k of blocks, each meeting the device constraints (S_MAX, T_MAX).
// It follows the recursive peeling paradigm (Algorithm 1 of the paper): at
// each iteration the remainder is bipartitioned by constructive seeding
// (§3.2) and the solution is refined by a schedule of guided iterative
// improvement passes (§3.1):
//
//	{R_k, P_k} = Bipartition(R_{k-1})
//	Improve(R_k, P_k)                      // the two newest blocks
//	if M <= N_small: Improve(all blocks)   // full Sanchis pass
//	Improve(P_MIN_size, R_k)               // smallest block
//	Improve(P_MIN_IO,   R_k)               // fewest-terminal block
//	Improve(P_MIN_F,    R_k)               // most free space (σ1, σ2 weights)
//	if k == M and M <= N_small:
//	    Improve(P_i, R_k) for every i      // final all-pairs sweep
//
// until the remainder itself meets the device constraints.
//
// Run is the primary entry point: it accepts a context.Context for
// cancellation and deadlines, and emits structured events and effort
// counters through internal/obs (Config.Sink, Result.Stats). Partition is
// the context-free convenience wrapper; Portfolio races several
// configurations concurrently, cancelling the losers once a provably
// optimal winner (feasible with K = M) is in.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
	"fpart/internal/seed"
)

// sigma1 and sigma2 weight logic and I/O occupation in the free-space
// estimate F = σ1·(S_MAX−S_i)/S_MAX + σ2·(T_MAX−T_i)/T_MAX (§3.1, §4).
const sigma1, sigma2 = 0.5, 0.5

// Config tunes FPART. The zero value selects the remaining published
// parameters of §4: N_small = 15, λ = (0.4, 0.6, 0.1), move windows
// (1.05, 0.95, 0.3), stack depth 4, 2-level gains.
type Config struct {
	// Engine configures the iterative-improvement engine (§3.3–§3.7).
	Engine sanchis.Config
	// NSmall separates the small-k and big-k improvement strategies
	// (§3.1): a peel whose lower bound M is at most NSmall runs the
	// small-k strategy. Zero selects the published value 15; -1 runs the
	// big-k strategy on every peel; a positive value is kept.
	NSmall int
	// DisableSchedule reduces the improvement schedule to the single
	// newest-pair pass, the k-way.x strategy (see KWayX).
	DisableSchedule bool
	// DisableAbsorb turns off the final absorption pass that dissolves
	// small leftover blocks into the free space of the others once a
	// feasible solution exists. Absorption is this implementation's
	// endgame counterpart to the paper's k = M all-pairs sweep; it can
	// only reduce K and never breaks feasibility.
	DisableAbsorb bool
	// Sink, when non-nil, receives one obs.Event per algorithm step
	// (bipartitions, improvement passes, stack restarts, repairs,
	// absorptions), mirroring Figure 1. Use obs.NewTextSink for the
	// classic line trace or obs.NewJSONSink for machine consumption. The
	// sink is invoked synchronously; Portfolio serializes shared sinks.
	Sink obs.Sink
	// Label tags this configuration's events (obs.Event.Source).
	// Portfolio fills it with "portfolio[i]" when empty.
	Label string
	// Budget, when non-nil, caps the extra goroutines Portfolio may spawn
	// for its members (members that find no free token run on the caller's
	// goroutine). Share one Budget across portfolio runs and daemon jobs to
	// bound total CPU oversubscription. A single Run never reads it.
	Budget *Budget
}

func (c Config) normalize() Config {
	if c.NSmall == 0 {
		c.NSmall = 15
	}
	if c.Engine == (sanchis.Config{}) {
		c.Engine = sanchis.Default()
	}
	return c
}

// Default returns the published configuration.
func Default() Config { return Config{}.normalize() }

// KWayX returns the recursive-bipartitioning baseline of Kuznar, Brglez &
// Kozminski (DAC 1993, "cost minimization of partitions into multiple
// devices"), the method the FPART paper calls k-way.x or (p,p), as a
// configuration of the same peel.
//
// The baseline shares the peeling skeleton of Algorithm 1 but omits every
// piece of FPART's guidance, matching §3's description of its weaknesses:
//
//   - improvement runs only between the remainder and the block produced at
//     the last step — blocks carved earlier are never revisited, so the
//     algorithm is greedy and I/O saturates at the later iterations;
//   - the cost function considers only the net number (cut size), not the
//     infeasibility distance, terminal totals, or external I/O balance;
//   - no solution stacks and no second-level gains;
//   - no endgame absorption.
//
// Comparing KWayX to Default on the same circuits reproduces the k-way.x
// column of Tables 2–5.
func KWayX() Config {
	return Config{
		Engine:          sanchis.Config{StackDepth: -1, CutObjective: true},
		DisableSchedule: true,
		DisableAbsorb:   true,
	}.normalize()
}

// Stats aggregates algorithm effort counters; it is an alias for obs.Stats
// (see that package for the field catalogue).
type Stats = obs.Stats

// Result is the outcome of a Run, Peel or Portfolio call.
type Result struct {
	// Partition holds the final assignment. When Feasible is true every
	// block meets the device constraints.
	Partition *partition.Partition
	// K is the number of non-empty blocks in the final solution.
	K int
	// M is the theoretical lower bound on the block count.
	M int
	// Feasible reports whether a fully feasible solution was reached.
	Feasible bool
	Stats    Stats
	Elapsed  time.Duration
}

// Blocks returns the node sets of the non-empty blocks.
func (r *Result) Blocks() [][]hypergraph.NodeID {
	var out [][]hypergraph.NodeID
	for b := 0; b < r.Partition.NumBlocks(); b++ {
		if r.Partition.Nodes(partition.BlockID(b)) > 0 {
			out = append(out, r.Partition.NodesIn(partition.BlockID(b)))
		}
	}
	return out
}

// Partition runs FPART on circuit h targeting device dev. It is Run with a
// background context.
func Partition(h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	return Run(context.Background(), h, dev, cfg)
}

// Run executes FPART on circuit h targeting device dev. When ctx is
// cancelled or its deadline passes, Run aborts promptly — mid-pass, via the
// engine's cancellation polling — and returns ctx's error; the partial
// solution is discarded. Structured events flow to cfg.Sink and effort
// counters land in Result.Stats. Input failing CheckInput is rejected
// before any work.
func Run(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	pl, err := startPeel(ctx, h, dev, cfg.Sink, cfg.Label)
	if err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	ecfg.Obs = pl.em
	eng := getEngine(pl.p, ecfg)
	defer putEngine(eng)
	cost := cfg.Engine.Cost
	if cost == (partition.CostParams{}) {
		cost = partition.DefaultCost()
	}
	r := &runState{peel: pl, cfg: cfg, dev: dev, eng: eng, cost: cost}
	if err := pl.loop(r.bipartition, r.schedule); err != nil {
		return pl.cancelled(err)
	}

	p := pl.p
	if !cfg.DisableAbsorb && p.Classify() == partition.FeasibleSolution {
		t0 := time.Now()
		var snapBuf partition.Snapshot
		for ctx.Err() == nil && absorbSmallest(p, &snapBuf, r.st, pl.em) {
		}
		r.st.PhaseTime[obs.PhaseAbsorb] += time.Since(t0)
		if err := ctx.Err(); err != nil {
			return pl.cancelled(err)
		}
	}
	return pl.finish(), nil
}

// runState extends one peeling trajectory with FPART's Algorithm 1 step:
// the engine improving the partition and the configuration scheduling it.
type runState struct {
	*peel
	cfg  Config
	dev  device.Device
	eng  *sanchis.Engine
	cost partition.CostParams
}

// improve runs one schedule step and folds the engine counters into the
// trajectory stats; it returns ctx's error when the step was cut short.
func (r *runState) improve(label string, blocks ...partition.BlockID) error {
	t0 := time.Now()
	st, err := r.eng.ImproveCtx(r.ctx, blocks, r.rem, r.m)
	r.st.PhaseTime[obs.PhaseImprove] += time.Since(t0)
	r.st.ImproveCalls++
	st.FoldInto(r.st)
	if r.em.Enabled() {
		r.em.Emit(obs.Event{
			Type: obs.ImprovePass, Iteration: r.st.Iterations,
			Label: label, Blocks: blockInts(blocks),
			Passes: st.Passes, Moves: st.MovesApplied, Improved: st.Improved,
		})
	}
	return err
}

// bipartition is Algorithm 1's constructive seeding (§3.2):
// {R_k, P_k} = Bipartition(R_{k-1}). It returns P_k, or NoBlock when
// seeding finds no bipartition.
func (r *runState) bipartition() (partition.BlockID, error) {
	pk, ok := seed.Best(r.p, r.rem, r.dev, r.cost, r.m)
	if !ok {
		return partition.NoBlock, nil
	}
	return pk, nil
}

// schedule runs the improvement schedule of §3.1 after the block pk was
// seeded, then repairs semi-feasibility. An error is the context's,
// already folded into the partial step.
func (r *runState) schedule(pk partition.BlockID) error {
	if err := r.improve("pair(R,Pk)", r.rem, pk); err != nil {
		return err
	}
	if !r.cfg.DisableSchedule {
		if r.m <= r.cfg.NSmall {
			if err := r.improve("all", allBlocks(r.p)...); err != nil {
				return err
			}
		}
		schedule := []struct {
			label string
			pick  func() partition.BlockID
		}{
			{"pair(Pmin_size,R)", func() partition.BlockID { return minSizeBlock(r.p, r.rem) }},
			{"pair(Pmin_IO,R)", func() partition.BlockID { return minIOBlock(r.p, r.rem) }},
			{"pair(Pmax_F,R)", func() partition.BlockID { return maxFreeBlock(r.p, r.rem, sigma1, sigma2) }},
		}
		prev := pk
		for _, s := range schedule {
			b := s.pick()
			if b == partition.NoBlock || b == prev {
				continue
			}
			if err := r.improve(s.label, b, r.rem); err != nil {
				return err
			}
			prev = b
		}
		if r.p.NumBlocks() == r.m && r.m <= r.cfg.NSmall {
			for b := 0; b < r.p.NumBlocks(); b++ {
				if partition.BlockID(b) != r.rem {
					if err := r.improve("final-pair", partition.BlockID(b), r.rem); err != nil {
						return err
					}
				}
			}
		}
	}

	t0 := time.Now()
	repairNonRemainder(r.p, r.rem, r.st, r.em)
	r.st.PhaseTime[obs.PhaseRepair] += time.Since(t0)
	return nil
}

// blockInts converts block IDs for an event payload.
func blockInts(blocks []partition.BlockID) []int {
	out := make([]int, len(blocks))
	for i, b := range blocks {
		out[i] = int(b)
	}
	return out
}

// absorbSmallest tries to dissolve the smallest non-empty block by moving
// each of its nodes into the feasible block with the strongest net
// affinity. On failure the partition is restored. snapBuf is a reusable
// rollback snapshot owned by the caller so the absorb loop allocates at
// most once. Reports whether a block was dissolved.
func absorbSmallest(p *partition.Partition, snapBuf *partition.Snapshot, st *Stats, em *obs.Emitter) bool {
	target := partition.NoBlock
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if p.Nodes(id) == 0 {
			continue
		}
		if target == partition.NoBlock || p.Size(id) < p.Size(target) ||
			(p.Size(id) == p.Size(target) && p.Nodes(id) < p.Nodes(target)) {
			target = id
		}
	}
	if target == partition.NoBlock || nonEmptyBlocks(p) < 2 {
		return false
	}
	h := p.Hypergraph()
	*snapBuf = p.SnapshotInto(*snapBuf)
	snap := *snapBuf
	for p.Nodes(target) > 0 {
		moved := false
		// Take the node with the strongest pull toward some other block.
		type cand struct {
			v  hypergraph.NodeID
			to partition.BlockID
			w  int
		}
		best := cand{v: -1, to: partition.NoBlock, w: -1}
		for _, v := range p.NodesIn(target) {
			affinity := map[partition.BlockID]int{}
			for _, e := range h.NodeNets(v) {
				for _, b := range p.Blocks(e, nil) {
					if b != target {
						affinity[b] += h.NetWeight(e)
					}
				}
			}
			for b := 0; b < p.NumBlocks(); b++ {
				id := partition.BlockID(b)
				if id == target || p.Nodes(id) == 0 {
					continue
				}
				if w := affinity[id]; w > best.w {
					best = cand{v: v, to: id, w: w}
				}
			}
		}
		if best.to == partition.NoBlock {
			p.Restore(snap)
			return false
		}
		// Prefer the affinity-ranked target but accept any feasible one.
		order := []partition.BlockID{best.to}
		for b := 0; b < p.NumBlocks(); b++ {
			id := partition.BlockID(b)
			if id != target && id != best.to && p.Nodes(id) > 0 {
				order = append(order, id)
			}
		}
		for _, to := range order {
			p.Move(best.v, to)
			if p.Feasible(to) {
				moved = true
				break
			}
			p.Move(best.v, target)
		}
		if !moved {
			p.Restore(snap)
			return false
		}
	}
	if p.Classify() != partition.FeasibleSolution {
		p.Restore(snap)
		return false
	}
	st.Absorbed++
	em.Emit(obs.Event{Type: obs.Absorb, Block: int(target)})
	return true
}

// Portfolio runs FPART once per configuration (concurrently — the
// hypergraph is read-only) and returns the best result: feasible beats
// infeasible, then fewer devices, then fewer total terminals. It realizes
// the classical "number of runs" FM parameter (§1) as a deterministic
// strategy portfolio rather than random restarts.
//
// When member i finishes feasible at the lower bound (K = M — no other
// configuration can beat it on the device count), the members after it
// are cancelled; their context.Canceled errors are absorbed. Members
// before it run to completion, and the lowest-index member at the bound
// wins, so the result is the same at any budget capacity and any goroutine
// schedule. Cancelling ctx itself aborts every member and returns ctx's
// error. Member sinks are wrapped with one shared lock, so several
// configurations may point at the same obs.Sink. Members fan out under the
// first configuration's Budget (see Budget.Fan); give every member the
// same one.
func Portfolio(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfgs []Config) (*Result, error) {
	if len(cfgs) == 0 {
		cfgs = DefaultPortfolio()
	}
	// One context per member, so an optimal member cancels exactly the
	// members after it.
	ctxs := make([]context.Context, len(cfgs))
	cancels := make([]context.CancelFunc, len(cfgs))
	for i := range cfgs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
		defer cancels[i]()
	}

	members := make([]Config, len(cfgs))
	copy(members, cfgs)
	var sinkMu sync.Mutex
	for i := range members {
		members[i].Sink = obs.Locked(&sinkMu, members[i].Sink)
		if members[i].Label == "" {
			members[i].Label = fmt.Sprintf("portfolio[%d]", i)
		}
	}

	type slot struct {
		res *Result
		err error
	}
	out := make([]slot, len(members))
	runOne := func(i int) {
		res, err := Run(ctxs[i], h, dev, members[i])
		out[i] = slot{res, err}
		if err == nil && atLowerBound(res) {
			for _, c := range cancels[i+1:] {
				c() // provably optimal: stop the later members
			}
		}
	}
	// Tag profiler samples on portfolio goroutines with the member they
	// run, so concurrent-run profiles split by strategy.
	members[0].Budget.Fan(ctx, len(members), func(i int) pprof.LabelSet {
		return pprof.Labels("method", "portfolio", "candidate", members[i].Label)
	}, runOne)

	var best *Result
	var firstErr error
	for _, s := range out {
		if s.err != nil {
			// A member cancelled by the winner's cancel() is not a
			// failure; a parent-context cancellation is handled below.
			if !errors.Is(s.err, context.Canceled) && !errors.Is(s.err, context.DeadlineExceeded) && firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		if best == nil || betterResult(s.res, best) {
			best = s.res
		}
		if atLowerBound(s.res) {
			break // later members may have been cancelled: the lowest optimal index wins
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, context.Canceled
	}
	return best, nil
}

// atLowerBound reports whether r is provably optimal on device count:
// feasible with K = M.
func atLowerBound(r *Result) bool { return r.Feasible && r.K == r.M }

// betterResult orders portfolio outcomes.
func betterResult(a, b *Result) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.K != b.K {
		return a.K < b.K
	}
	return a.Partition.TerminalSum() < b.Partition.TerminalSum()
}

// DefaultPortfolio returns the strategy mix used by Portfolio when no
// configurations are given: the published configuration, the pin-gain
// variant (§5 future work), a deeper-stack variant, and a no-windows
// variant for circuits where the regions trap the search.
func DefaultPortfolio() []Config {
	published := Default()
	pin := Default()
	pin.Engine.PinGain = true
	deep := Default()
	deep.Engine.StackDepth = 8
	open := Default()
	open.Engine.DisableWindows = true
	return []Config{published, pin, deep, open}
}

// allBlocks lists every current block.
func allBlocks(p *partition.Partition) []partition.BlockID {
	out := make([]partition.BlockID, p.NumBlocks())
	for i := range out {
		out[i] = partition.BlockID(i)
	}
	return out
}

// nonEmptyBlocks counts blocks holding at least one node.
func nonEmptyBlocks(p *partition.Partition) int {
	n := 0
	for b := 0; b < p.NumBlocks(); b++ {
		if p.Nodes(partition.BlockID(b)) > 0 {
			n++
		}
	}
	return n
}

// minSizeBlock returns the non-remainder, non-empty block with the smallest
// size (§3.1, P_MIN_size). NoBlock when none exists.
func minSizeBlock(p *partition.Partition, rem partition.BlockID) partition.BlockID {
	best := partition.NoBlock
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if id == rem || p.Nodes(id) == 0 {
			continue
		}
		if best == partition.NoBlock || p.Size(id) < p.Size(best) {
			best = id
		}
	}
	return best
}

// minIOBlock returns the non-remainder block with the fewest terminals
// (§3.1, P_MIN_IO).
func minIOBlock(p *partition.Partition, rem partition.BlockID) partition.BlockID {
	best := partition.NoBlock
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if id == rem || p.Nodes(id) == 0 {
			continue
		}
		if best == partition.NoBlock || p.Terminals(id) < p.Terminals(best) {
			best = id
		}
	}
	return best
}

// maxFreeBlock returns the non-remainder block with the greatest free-space
// estimate F = σ1·(S_MAX−S_i)/S_MAX + σ2·(T_MAX−T_i)/T_MAX (§3.1, P_MIN_F).
func maxFreeBlock(p *partition.Partition, rem partition.BlockID, s1, s2 float64) partition.BlockID {
	dev := p.Device()
	smax, tmax := float64(dev.SMax()), float64(dev.TMax())
	best := partition.NoBlock
	bestF := 0.0
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if id == rem || p.Nodes(id) == 0 {
			continue
		}
		f := s1*(smax-float64(p.Size(id)))/smax + s2*(tmax-float64(p.Terminals(id)))/tmax
		if best == partition.NoBlock || f > bestF {
			best, bestF = id, f
		}
	}
	return best
}

// repairNonRemainder restores semi-feasibility: any non-remainder block
// still violating the device constraints sheds its least-connected cells
// back to the remainder until it fits. Only semi-feasible solutions are
// accepted between Algorithm 1 steps (§3.5), and the improvement passes'
// best-key selection almost always delivers that already; this is the
// safety net for adversarial inputs.
func repairNonRemainder(p *partition.Partition, rem partition.BlockID, st *Stats, em *obs.Emitter) {
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if id == rem || p.Feasible(id) {
			continue
		}
		shed := 0
		for !p.Feasible(id) && p.Nodes(id) > 0 {
			v := worstCell(p, id)
			p.Move(v, rem)
			shed++
			st.MovesApplied++
		}
		em.Emit(obs.Event{Type: obs.Repair, Block: int(id), Moves: shed})
	}
}

// worstCell returns the cell of block b with the fewest pins on nets
// internal to b (the loosest-bound cell), preferring larger cells when the
// block is size-infeasible.
func worstCell(p *partition.Partition, b partition.BlockID) hypergraph.NodeID {
	h := p.Hypergraph()
	dev := p.Device()
	sizeViolated := p.Size(b) > dev.SMax()
	// For R>1 devices, prefer shedding cells that demand an overflowing
	// resource axis — moving DSP-free cells out of a DSP-overfull block
	// can never repair it.
	var resViolated []bool
	for r := 0; r < p.NumRes(); r++ {
		if p.Res(b, r) > p.ResCap(r) {
			if resViolated == nil {
				resViolated = make([]bool, p.NumRes())
			}
			resViolated[r] = true
		}
	}
	var best hypergraph.NodeID = -1
	bestScore := 0
	for _, v := range p.NodesIn(b) {
		internal := 0
		for _, e := range h.NodeNets(v) {
			if p.Span(e) == 1 {
				internal += h.NetWeight(e)
			}
		}
		score := -internal
		if sizeViolated {
			score += h.SizeOf(v) * 8
		}
		for r := range resViolated {
			if resViolated[r] {
				score += p.ResDemandOf(v, r) * 8
			}
		}
		if best < 0 || score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}
