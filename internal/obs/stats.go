package obs

import (
	"fmt"
	"io"
	"time"
)

// Phase indexes the per-phase wall-time slots of Stats.PhaseTime.
type Phase uint8

const (
	// PhaseSeed is the constructive bipartitioning of §3.2.
	PhaseSeed Phase = iota
	// PhaseImprove is the guided iterative improvement of §3.3–§3.7.
	PhaseImprove
	// PhaseRepair is the semi-feasibility repair between iterations.
	PhaseRepair
	// PhaseAbsorb is the endgame absorption pass.
	PhaseAbsorb
	// PhaseCoarsen is the hierarchy construction of a multilevel V-cycle.
	PhaseCoarsen
	// PhaseRefine is the uncoarsening/refinement sweep of a multilevel
	// V-cycle (projection + boundary FM + flow refinement).
	PhaseRefine

	// NumPhases sizes PhaseTime.
	NumPhases
)

var phaseNames = [NumPhases]string{"seed", "improve", "repair", "absorb", "coarsen", "refine"}

// String names the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Stats aggregates the effort counters of one partitioning run (or, after
// Merge, of several). The zero value is ready to use.
type Stats struct {
	// Iterations counts Algorithm 1 bipartition steps.
	Iterations int
	// ImproveCalls counts schedule-step Improve invocations.
	ImproveCalls int
	// Passes counts FM passes executed, including stack-restart series.
	Passes int
	// MovesEvaluated counts candidate moves examined by best-move
	// selection (admissible or not).
	MovesEvaluated int
	// MovesApplied counts cell moves actually applied (before rollbacks),
	// plus repair sheds.
	MovesApplied int
	// MovesGated counts candidate moves rejected by the feasible move
	// regions of §3.5.
	MovesGated int
	// BucketOps counts gain-bucket mutations (inserts, removals, updates).
	BucketOps int
	// Restarts counts pass series started from stacked solutions (§3.6).
	Restarts int
	// Absorbed counts blocks dissolved by the endgame absorption.
	Absorbed int
	// PeakBlocks is the largest block count observed during the run.
	PeakBlocks int
	// PhaseTime is wall time per algorithm phase, indexed by Phase.
	PhaseTime [NumPhases]time.Duration
}

// Merge folds o into s (counters add, peaks take the max).
func (s *Stats) Merge(o Stats) {
	s.Iterations += o.Iterations
	s.ImproveCalls += o.ImproveCalls
	s.Passes += o.Passes
	s.MovesEvaluated += o.MovesEvaluated
	s.MovesApplied += o.MovesApplied
	s.MovesGated += o.MovesGated
	s.BucketOps += o.BucketOps
	s.Restarts += o.Restarts
	s.Absorbed += o.Absorbed
	if o.PeakBlocks > s.PeakBlocks {
		s.PeakBlocks = o.PeakBlocks
	}
	for i := range s.PhaseTime {
		s.PhaseTime[i] += o.PhaseTime[i]
	}
}

// MovesPerPass is the average number of applied moves per FM pass, the
// headline effort density metric of the EXPERIMENTS.md instrumentation
// tables.
func (s Stats) MovesPerPass() float64 {
	if s.Passes == 0 {
		return 0
	}
	return float64(s.MovesApplied) / float64(s.Passes)
}

// GateRate is the fraction of evaluated moves rejected by the move windows.
func (s Stats) GateRate() float64 {
	if s.MovesEvaluated == 0 {
		return 0
	}
	return float64(s.MovesGated) / float64(s.MovesEvaluated)
}

// Report writes a multi-line human-readable summary (the `cmd/fpart -stats`
// instrumentation block).
func (s Stats) Report(w io.Writer) {
	fmt.Fprintf(w, "instrumentation:\n")
	fmt.Fprintf(w, "  iterations %6d   improve calls %6d   passes %6d   restarts %5d\n",
		s.Iterations, s.ImproveCalls, s.Passes, s.Restarts)
	fmt.Fprintf(w, "  moves      %6d applied / %d evaluated / %d window-gated (%.1f%%), %.1f moves/pass\n",
		s.MovesApplied, s.MovesEvaluated, s.MovesGated, 100*s.GateRate(), s.MovesPerPass())
	fmt.Fprintf(w, "  buckets    %6d ops   peak blocks %d   absorbed %d\n",
		s.BucketOps, s.PeakBlocks, s.Absorbed)
	fmt.Fprintf(w, "  phase time")
	for p := Phase(0); p < NumPhases; p++ {
		fmt.Fprintf(w, "  %s %s", p, s.PhaseTime[p].Round(time.Microsecond))
	}
	fmt.Fprintln(w)
}
