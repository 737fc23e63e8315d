package core

// Speculative peeling: instead of committing to one bipartition per
// Algorithm 1 step, race Config.SpecWidth candidate peels over arena
// clones of the live partition and adopt the one whose post-repair
// solution key (§3.4) is best. Candidate 0 always carries the caller's
// engine configuration; the others cycle the DefaultPortfolio variant mix
// (pin gain, deeper stacks, open windows), so speculation explores the
// same strategy space as the portfolio but per peel step rather than per
// whole run.
//
// Determinism: the candidate set is fixed by the width, every candidate
// runs to completion (seeding is engine-independent, so all candidates
// carve the same seed and diverge only in improvement), the winner is the
// strictly-better key with ties to the lowest candidate index, and only
// the winner's partition and stats are adopted. The Budget decides merely
// which candidates overlap in time — never which exist or which wins — so
// results are bit-identical at any parallelism.

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/sanchis"
)

// specVariantNames label the engine-variant cycle applied to candidates
// (candidate i uses variant i mod 4; index 0 is the base configuration).
var specVariantNames = [4]string{"base", "pin-gain", "deep-stack", "open-windows"}

// speculator holds the per-run speculation state: one engine variant,
// event emitter, and candidate slot per width index, reused across rounds.
type speculator struct {
	variants []sanchis.Config
	labels   []string
	cands    []specCand
}

// specCand is one racing candidate: a trajectory over an arena clone plus
// its round outcome.
type specCand struct {
	rs    runState
	st    Stats
	arena *arena
	out   peelOutcome
	err   error
	key   partition.Key
}

// newSpeculator builds the fixed candidate set for cfg (already
// normalized). Candidate emitters share one locked view of cfg.Sink so the
// concurrent trajectories may interleave safely on the caller's sink.
func newSpeculator(cfg Config) *speculator {
	width := cfg.SpecWidth
	s := &speculator{
		variants: make([]sanchis.Config, width),
		labels:   make([]string, width),
		cands:    make([]specCand, width),
	}
	var mu sync.Mutex
	sink := obs.Locked(&mu, cfg.Sink)
	for i := 0; i < width; i++ {
		v := cfg.Engine
		switch i % 4 {
		case 1:
			v.PinGain = !v.PinGain
		case 2:
			v.StackDepth = 8
		case 3:
			v.DisableWindows = !v.DisableWindows
		}
		s.labels[i] = specVariantNames[i%4]
		label := fmt.Sprintf("spec[%d]", i)
		if cfg.Label != "" {
			label = fmt.Sprintf("%s/spec[%d]", cfg.Label, i)
		}
		em := obs.NewEmitter(sink, label)
		v.Obs = em
		s.variants[i] = v
		s.cands[i].rs.em = em
	}
	return s
}

// round races one speculative peel step for the main trajectory r and
// adopts the winner. The returned outcome is the winner's; an error is a
// context cancellation observed by any candidate.
func (s *speculator) round(r *runState) (peelOutcome, error) {
	width := len(s.cands)
	roundCtx, cancelRound := context.WithCancel(r.ctx)
	defer cancelRound()

	// Serial setup: clone the live partition into one arena per candidate.
	for i := range s.cands {
		c := &s.cands[i]
		c.arena = getArena(r.p, s.variants[i])
		c.st = Stats{}
		c.out, c.err = peelProgress, nil
		em := c.rs.em
		c.rs = runState{
			ctx: roundCtx, cfg: r.cfg, dev: r.dev,
			p: c.arena.p, eng: c.arena.eng,
			cost: r.cost, rem: r.rem, m: r.m, iter: r.iter,
			st: &c.st, em: em,
		}
	}
	runCand := func(c *specCand) {
		c.out, c.err = c.rs.peelStep()
		if c.err != nil {
			// A dead context dooms the whole round; stop the siblings early.
			cancelRound()
			return
		}
		if c.out != peelStuck {
			c.key = c.rs.p.Key(c.rs.cost, c.rs.rem, c.rs.m)
		}
	}

	// Race. Token availability shapes the overlap, never the candidate set.
	// Profiler labels tag every sample taken on a speculation goroutine with
	// the peel step and candidate variant, so a CPU or goroutine profile of
	// a concurrent run attributes time to (method, peel, candidate) instead
	// of one anonymous closure.
	r.cfg.Budget.Fan(roundCtx, width, func(i int) pprof.LabelSet {
		return pprof.Labels(
			"method", "speculate",
			"peel", strconv.Itoa(r.iter),
			"candidate", s.labels[i%len(s.labels)],
		)
	}, func(i int) { runCand(&s.cands[i]) })

	defer func() {
		for i := range s.cands {
			putArena(s.cands[i].arena)
			s.cands[i].arena = nil
		}
	}()
	for i := range s.cands {
		if err := s.cands[i].err; err != nil {
			return peelProgress, err
		}
	}
	if s.cands[0].out == peelStuck {
		// Seeding is engine-independent: no candidate could carve a block.
		// The live partition is untouched (candidates worked on clones).
		return peelStuck, nil
	}

	// Deterministic selection: best §3.4 key, ties to the lowest index.
	w := 0
	for i := 1; i < width; i++ {
		if s.cands[i].out != peelStuck && s.cands[i].key.Better(s.cands[w].key) {
			w = i
		}
	}
	win := &s.cands[w]
	r.p.CopyFrom(win.rs.p)
	// Only the winner's effort is folded in, so effort counters stay
	// comparable across speculation widths; the Spec* counters record the
	// racing itself.
	r.st.Merge(win.st)
	r.iter++
	r.st.SpecRounds++
	if w != 0 {
		r.st.SpecWins++
	}
	for i := range s.cands {
		if i == w {
			r.em.Emit(obs.Event{Type: obs.SpecWin, Iteration: r.iter, Candidate: i, Label: s.labels[i]})
		} else {
			r.st.SpecLosses++
			r.em.Emit(obs.Event{Type: obs.SpecLoss, Iteration: r.iter, Candidate: i, Label: s.labels[i]})
		}
	}
	return win.out, nil
}
