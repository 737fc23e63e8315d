package mlfpart

import (
	"context"

	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
)

// pairFM runs boundary-restricted Sanchis FM between the most
// cut-connected block pairs of one level. The engine runs in cut-objective
// mode — the solution key is (feasible blocks, cut), so a pass can never
// trade feasibility for cut — with strict S_MAX ceilings (m = 0 disables
// the overfill window) and no lower window, and each call is restricted to
// the pair's boundary cells, keeping the cost proportional to the cut, not
// the level size. One pooled engine is Reset per level.
func (r *refiner) pairFM(ctx context.Context, p *partition.Partition, stats *obs.Stats) error {
	pairs := r.topPairs(p)
	if len(pairs) == 0 {
		return nil
	}
	cfg := sanchis.Config{
		CutObjective: true,
		StackDepth:   -1,
		MaxPasses:    2,
		Windows:      sanchis.Windows{Upper: 1.05, Lower2: 1e-9, LowerMulti: 1e-9},
	}
	if r.eng == nil {
		r.eng = sanchis.New(p, cfg)
	} else {
		r.eng.Reset(p, cfg)
	}
	for _, pr := range pairs {
		if err := ctx.Err(); err != nil {
			return err
		}
		cells := r.pairBoundary(p, pr.a, pr.b)
		if len(cells) < 2 {
			continue
		}
		st, err := r.eng.ImproveSubsetCtx(ctx, []partition.BlockID{pr.a, pr.b}, partition.NoBlock, 0, cells)
		if err != nil {
			return err
		}
		st.FoldInto(stats)
	}
	return nil
}
