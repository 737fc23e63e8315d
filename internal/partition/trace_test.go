package partition

// Tests for MoveTrace's NetDelta reporting and the incremental cost
// aggregates it feeds (Validate cross-checks feasCount, termSum, sizeOver,
// termOver, and the external-balance numerator on every call).

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpart/internal/hypergraph"
)

func TestQuickMoveTraceMatchesObservedTransitions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b hypergraph.Builder
		n := 4 + r.Intn(30)
		for i := 0; i < n; i++ {
			if r.Intn(6) == 0 {
				b.AddPad("p")
			} else {
				b.AddInterior("v", 1+r.Intn(3))
			}
		}
		for e := 0; e < 2+r.Intn(40); e++ {
			deg := 2 + r.Intn(4)
			pins := make([]hypergraph.NodeID, deg)
			for i := range pins {
				pins[i] = hypergraph.NodeID(r.Intn(n))
			}
			b.AddNet("e", pins...)
		}
		h := b.MustBuild()
		p := New(h, testDev)
		k := 2 + r.Intn(4)
		for i := 1; i < k; i++ {
			p.AddBlock()
		}
		buf := make([]NetDelta, 0, 8) // non-nil: nil means "record nothing"
		for mv := 0; mv < 120; mv++ {
			v := hypergraph.NodeID(r.Intn(n))
			to := BlockID(r.Intn(k))
			from := p.Block(v)
			nets := h.NodeNets(v)
			type obs struct{ fp, tp, span int }
			before := make([]obs, len(nets))
			for i, e := range nets {
				before[i] = obs{p.PinCount(e, from), p.PinCount(e, to), p.Span(e)}
			}
			buf = p.MoveTrace(v, to, buf[:0])
			if from == to {
				if len(buf) != 0 {
					t.Logf("seed %d: no-op move recorded %d deltas", seed, len(buf))
					return false
				}
				continue
			}
			if len(buf) != len(nets) {
				t.Logf("seed %d: %d deltas for %d nets", seed, len(buf), len(nets))
				return false
			}
			for i, nd := range buf {
				if nd.Net != nets[i] ||
					int(nd.FromPins) != before[i].fp ||
					int(nd.ToPins) != before[i].tp ||
					int(nd.SpanBefore) != before[i].span ||
					int(nd.SpanAfter) != p.Span(nets[i]) {
					t.Logf("seed %d move %d net %d: delta %+v, observed before=%+v spanAfter=%d",
						seed, mv, nets[i], nd, before[i], p.Span(nets[i]))
					return false
				}
			}
			// Prime and exercise the external-balance cache with varying m
			// so Validate cross-checks its incremental numerator too.
			if r.Intn(7) == 0 {
				p.ExternalBalance(1 + r.Intn(5))
			}
			if r.Intn(9) == 0 {
				if err := p.Validate(); err != nil {
					t.Logf("seed %d move %d: %v", seed, mv, err)
					return false
				}
			}
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExternalBalanceCacheSurvivesAddBlock(t *testing.T) {
	var b hypergraph.Builder
	v0 := b.AddInterior("v", 1)
	for i := 0; i < 4; i++ {
		p := b.AddPad("p")
		b.AddNet("pe", p, v0)
	}
	h := b.MustBuild()
	p := New(h, testDev)
	b1 := p.AddBlock()
	p.Move(1, b1)
	p.Move(2, b1)
	_ = p.ExternalBalance(2) // prime the cache at m=2
	p.AddBlock()             // must fold the new zero-pad block into the numerator
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Recompute from scratch for comparison.
	pads := h.NumPads()
	want := 0
	for blk := 0; blk < p.NumBlocks(); blk++ {
		if d := pads - 2*p.Pads(BlockID(blk)); d > 0 {
			want += d
		}
	}
	if got := p.ExternalBalance(2); got != float64(want)/float64(pads) {
		t.Errorf("d_E after AddBlock = %v, want %v", got, float64(want)/float64(pads))
	}
}
