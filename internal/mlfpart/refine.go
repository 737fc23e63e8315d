package mlfpart

import (
	"context"
	"sort"

	"fpart/internal/flow"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
)

// Refinement tiers by level size: levels with at most flowMaxNodes nodes
// run corridor flow refinement on the top block pairs, levels with at most
// pairFMMaxNodes run pairwise boundary-restricted Sanchis FM between the
// most cut-connected block pairs, and every level runs up to refinePasses
// greedy boundary passes (each stops early when no cell moves). maxPairs
// bounds the block pairs flow and pair FM examine per level.
const (
	flowMaxNodes   = 4096
	pairFMMaxNodes = 40000
	refinePasses   = 2
	maxPairs       = 32
)

// refiner holds the scratch state shared by every uncoarsening level:
// candidate and gain buffers plus one pooled Sanchis engine that is Reset
// per level instead of reallocated.
type refiner struct {
	eng   *sanchis.Engine
	cand  []hypergraph.NodeID
	gains []moveCand
	seen  []bool
}

// refine improves one projected level in three tiers, coarsest-friendly
// first: corridor flow refinement on the top block pairs (small levels
// only — one max-flow per pair), pairwise boundary-restricted FM (mid
// levels), and greedy feasibility-gated boundary passes (every level).
// It returns the number of kept greedy moves.
func (r *refiner) refine(ctx context.Context, p *partition.Partition, stats *obs.Stats) (int, error) {
	n := p.Hypergraph().NumNodes()
	if n <= flowMaxNodes {
		for _, pr := range r.topPairs(p) {
			if _, err := flow.RefinePairCtx(ctx, p, pr.a, pr.b, 2, 2048); err != nil {
				return 0, err
			}
		}
	}
	if n <= pairFMMaxNodes {
		if err := r.pairFM(ctx, p, stats); err != nil {
			return 0, err
		}
	}
	moves := 0
	for pass := 0; pass < refinePasses; pass++ {
		moved, err := r.greedyPass(ctx, p, stats)
		moves += moved
		if err != nil {
			return moves, err
		}
		if moved == 0 {
			break
		}
	}
	return moves, nil
}

// blockPair is a cut-connected block pair, weighted by the number of
// two-block nets spanning exactly {a, b} (each counted with its weight).
type blockPair struct {
	a, b partition.BlockID
	w    int
}

// topPairs returns a greedy matching of the most cut-connected block
// pairs: pairs sorted by (weight desc, a asc, b asc), each block used at
// most once, at most maxPairs pairs. Deterministic: the sort key is a
// total order because each (a, b) appears once.
func (r *refiner) topPairs(p *partition.Partition) []blockPair {
	h := p.Hypergraph()
	w := make(map[uint64]int)
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if p.Span(ne) != 2 {
			continue
		}
		a := p.Block(h.NetPins(ne)[0])
		b := p.OtherBlock(ne, a)
		if a > b {
			a, b = b, a
		}
		w[uint64(uint32(a))<<32|uint64(uint32(b))] += h.NetWeight(ne)
	}
	pairs := make([]blockPair, 0, len(w))
	for key, cnt := range w {
		pairs = append(pairs, blockPair{
			a: partition.BlockID(int32(key >> 32)),
			b: partition.BlockID(int32(uint32(key))),
			w: cnt,
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].w != pairs[j].w {
			return pairs[i].w > pairs[j].w
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	used := make(map[partition.BlockID]bool)
	var out []blockPair
	for _, pr := range pairs {
		if used[pr.a] || used[pr.b] {
			continue
		}
		used[pr.a], used[pr.b] = true, true
		out = append(out, pr)
		if len(out) >= maxPairs {
			break
		}
	}
	return out
}

// greedyPass runs one feasibility-gated boundary sweep. Best moves are
// precomputed against the frozen pre-pass state, then applied in candidate
// order with the gain recomputed against the live partition and the move
// undone if either touched block would leave the device window.
func (r *refiner) greedyPass(ctx context.Context, p *partition.Partition, stats *obs.Stats) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	h := p.Hypergraph()
	cand := r.cand[:0]
	for v := 0; v < h.NumNodes(); v++ {
		id := hypergraph.NodeID(v)
		if h.KindOf(id) != hypergraph.Interior {
			continue
		}
		for _, e := range h.NodeNets(id) {
			if p.Span(e) > 1 {
				cand = append(cand, id)
				break
			}
		}
	}
	r.cand = cand
	if len(cand) == 0 {
		return 0, nil
	}
	if cap(r.gains) < len(cand) {
		r.gains = make([]moveCand, len(cand))
	}
	gains := r.gains[:len(cand)]

	for i := range cand {
		gains[i] = bestMove(p, cand[i])
	}
	stats.MovesEvaluated += len(cand)

	moved := 0
	for i, v := range cand {
		if i%4096 == 4095 {
			if err := ctx.Err(); err != nil {
				return moved, err
			}
		}
		if gains[i].gain <= 0 {
			continue
		}
		// Earlier moves this sweep may have changed the neighbourhood;
		// recompute against the live state before committing.
		mc := bestMove(p, v)
		if mc.gain <= 0 {
			continue
		}
		from := p.Block(v)
		p.Move(v, mc.target)
		if !p.Feasible(mc.target) || !p.Feasible(from) {
			p.Move(v, from)
			stats.MovesGated++
			continue
		}
		stats.MovesApplied++
		moved++
	}
	stats.Passes++
	return moved, nil
}

// moveCand is a candidate cell move: the best strictly-positive cut gain
// and its target block (gain 0 when no improving move exists).
type moveCand struct {
	gain   int32
	target partition.BlockID
}

// bestMove returns v's best cut-improving move. Candidate targets are the
// far sides of v's two-block incident nets: a single move can only uncut a
// net whose span is exactly 2, so every strictly-positive-gain target
// appears there. Ties break to the lowest target block ID.
//
// The gain is exact over all of v's nets and comes from one sweep. Moving v
// to a block t no net of v reaches costs g0, the weight of v's uncut nets
// with other pins (each becomes cut); a net already spanning two or more
// blocks keeps its cut state. A span-2 net {from, t} on which v is the
// only from pin becomes uncut when v moves to t, and every other net on
// which t has pins keeps its state, so g(t) = g0 + Σ w over those nets.
func bestMove(p *partition.Partition, v hypergraph.NodeID) moveCand {
	h := p.Hypergraph()
	from := p.Block(v)
	var g0 int32
	var tstore [16]partition.BlockID
	var gstore [16]int32
	targets, gains := tstore[:0], gstore[:0]
	for _, e := range h.NodeNets(v) {
		switch p.Span(e) {
		case 1:
			if h.NetDegree(e) > 1 {
				g0 -= int32(h.NetWeight(e))
			}
		case 2:
			t := p.OtherBlock(e, from)
			i := 0
			for i < len(targets) && targets[i] != t {
				i++
			}
			if i == len(targets) {
				targets = append(targets, t)
				gains = append(gains, 0)
			}
			if p.PinCount(e, from) == 1 {
				gains[i] += int32(h.NetWeight(e))
			}
		}
	}
	best := moveCand{target: from}
	for i, t := range targets {
		g := g0 + gains[i]
		if g > best.gain || (g == best.gain && g > 0 && t < best.target) {
			best = moveCand{gain: g, target: t}
		}
	}
	return best
}
