// Package kwayx implements the recursive-bipartitioning baseline of Kuznar,
// Brglez & Kozminski (DAC 1993, "cost minimization of partitions into
// multiple devices"), the method the FPART paper calls k-way.x or (p,p).
//
// The baseline shares the peeling skeleton of Algorithm 1 but omits every
// piece of FPART's guidance, matching §3's description of its weaknesses:
//
//   - improvement runs only between the remainder and the block produced at
//     the last step — blocks carved earlier are never revisited, so the
//     algorithm is greedy and I/O saturates at the later iterations;
//   - the cost function considers only the net number (cut size), not the
//     infeasibility distance, terminal totals, or external I/O balance;
//   - no solution stacks and no second-level gains.
//
// Comparing kwayx to core on the same circuits reproduces the k-way.x
// column of Tables 2–5.
//
// PartitionCtx is the instrumented entry point: it polls ctx in the pass
// loops (via the sanchis engine's mid-pass cancellation), emits one
// obs.Event per algorithm step to Config.Sink, and fills Result.Stats with
// the same effort counters core.Run reports, so the baseline is a
// first-class citizen of the engine registry.
package kwayx

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
	"fpart/internal/seed"
)

// Result mirrors core.Result for the baseline.
type Result struct {
	Partition  *partition.Partition
	K          int
	M          int
	Feasible   bool
	Iterations int
	// Stats carries the effort counters of the run (iterations, passes,
	// moves, per-phase wall time).
	Stats   obs.Stats
	Elapsed time.Duration
}

// Config tunes the baseline; the zero value is the canonical baseline.
type Config struct {
	// MaxPasses bounds the FM pass series per improvement call (default 10).
	MaxPasses int
	// Sink, when non-nil, receives one obs.Event per algorithm step.
	Sink obs.Sink
	// Label tags this run's events (obs.Event.Source).
	Label string
}

// Partition runs the k-way.x-style baseline. It is PartitionCtx with a
// background context.
func Partition(h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	return PartitionCtx(context.Background(), h, dev, cfg)
}

// PartitionCtx runs the k-way.x-style baseline under ctx. Cancellation is
// polled at every peel iteration and inside each improvement pass series,
// so the run aborts promptly; the partial solution is discarded and ctx's
// error is returned.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, dev device.Device, cfg Config) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if h.NumNodes() == 0 {
		return nil, errors.New("kwayx: empty circuit")
	}
	for _, id := range h.InteriorIDs() {
		if h.Node(id).Size > dev.SMax() {
			return nil, fmt.Errorf("kwayx: node %q larger than device (%d > %d)",
				h.Node(id).Name, h.Node(id).Size, dev.SMax())
		}
	}
	em := obs.NewEmitter(cfg.Sink, cfg.Label)

	engCfg := sanchis.Config{
		StackDepth:   -1,    // no solution stacks
		UseLevel2:    false, // first-level gains only
		CutObjective: true,  // cut-size cost function of [9]
		MaxPasses:    cfg.MaxPasses,
		Obs:          em,
	}
	p := partition.New(h, dev)
	m := device.LowerBound(h, dev)
	eng := sanchis.New(p, engCfg)
	rem := partition.BlockID(0)
	res := &Result{Partition: p, M: m}
	res.Stats.PeakBlocks = p.NumBlocks()
	maxBlocks := device.BlockCap(m)

	em.Emit(obs.Event{Type: obs.RunStart, M: m})
	cancelled := func(err error) (*Result, error) {
		em.Emit(obs.Event{Type: obs.Cancelled})
		return nil, err
	}

	for !p.Feasible(rem) {
		if err := ctx.Err(); err != nil {
			return cancelled(err)
		}
		if p.NumBlocks() >= maxBlocks {
			break
		}
		res.Iterations++
		res.Stats.Iterations++
		em.Emit(obs.Event{Type: obs.BipartitionStart, Iteration: res.Iterations})
		t0 := time.Now()
		pk, ok := seed.Best(p, rem, dev, partition.DefaultCost(), m)
		res.Stats.PhaseTime[obs.PhaseSeed] += time.Since(t0)
		if !ok {
			break
		}
		if p.NumBlocks() > res.Stats.PeakBlocks {
			res.Stats.PeakBlocks = p.NumBlocks()
		}
		em.Emit(obs.Event{
			Type: obs.BipartitionEnd, Iteration: res.Iterations,
			Block: int(pk), Size: p.Size(pk), Terminals: p.Terminals(pk),
		})
		// The baseline improves only between the newest pair.
		t0 = time.Now()
		st, err := eng.ImproveCtx(ctx, []partition.BlockID{rem, pk}, rem, m)
		res.Stats.PhaseTime[obs.PhaseImprove] += time.Since(t0)
		res.Stats.ImproveCalls++
		res.Stats.Passes += st.Passes
		res.Stats.MovesEvaluated += st.MovesEvaluated
		res.Stats.MovesApplied += st.MovesApplied
		res.Stats.MovesGated += st.MovesGated
		res.Stats.BucketOps += st.BucketOps
		res.Stats.Restarts += st.Restarts
		if em.Enabled() {
			em.Emit(obs.Event{
				Type: obs.ImprovePass, Iteration: res.Iterations,
				Label: "pair(R,Pk)", Blocks: []int{int(rem), int(pk)},
				Passes: st.Passes, Moves: st.MovesApplied, Improved: st.Improved,
			})
		}
		if err != nil {
			return cancelled(err)
		}
		t0 = time.Now()
		repair(p, rem, &res.Stats, em)
		res.Stats.PhaseTime[obs.PhaseRepair] += time.Since(t0)
		if p.Nodes(rem) == 0 {
			break
		}
	}
	res.Feasible = p.Classify() == partition.FeasibleSolution
	for b := 0; b < p.NumBlocks(); b++ {
		if p.Nodes(partition.BlockID(b)) > 0 {
			res.K++
		}
	}
	res.Elapsed = time.Since(start)
	em.Emit(obs.Event{Type: obs.RunEnd, K: res.K, M: m, Feasible: res.Feasible})
	return res, nil
}

// repair sheds loose cells from infeasible non-remainder blocks back to the
// remainder, exactly as the core algorithm's safety net does.
func repair(p *partition.Partition, rem partition.BlockID, st *obs.Stats, em *obs.Emitter) {
	h := p.Hypergraph()
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if id == rem || p.Feasible(id) {
			continue
		}
		shed := 0
		for !p.Feasible(id) && p.Nodes(id) > 0 {
			var worst hypergraph.NodeID = -1
			score := 0
			sizeViolated := p.Size(id) > p.Device().SMax()
			for _, v := range p.NodesIn(id) {
				internal := 0
				for _, e := range h.NodeNets(v) {
					if p.Span(e) == 1 {
						internal++
					}
				}
				s := -internal
				if sizeViolated {
					s += h.Node(v).Size * 8
				}
				if worst < 0 || s > score {
					worst, score = v, s
				}
			}
			p.Move(worst, rem)
			shed++
			st.MovesApplied++
		}
		em.Emit(obs.Event{Type: obs.Repair, Block: int(id), Moves: shed})
	}
}
