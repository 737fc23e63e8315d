package bench

// Instrumentation table: the per-circuit effort counters collected through
// internal/obs. This table has no counterpart in the paper (which reports
// only device counts and runtimes); it documents how much iterative
// improvement FPART actually performs per instance, the subject of the
// EXPERIMENTS.md "Instrumentation" section.

import (
	"fmt"
	"io"

	"fpart/internal/device"
)

// WriteInstrumentation runs FPART on every suite circuit for dev and
// renders the effort counters: Algorithm 1 iterations, FM passes, applied
// moves, moves per pass, the fraction of candidates rejected by the §3.5
// move windows, stack restarts (§3.6), and the peak block count.
func WriteInstrumentation(w io.Writer, dev device.Device, format Format) error {
	if format == Text {
		fmt.Fprintf(w, "Instrumentation. FPART effort counters on %s device (fresh runs on the synthetic suite)\n", dev.Name)
	}

	res, err := Suite(CircuitOrder, dev, []Method{FPART})
	if err != nil {
		return err
	}

	tw := newTableWriter(w, format, []int{8, 3, 6, 7, 8, 11, 8, 9, 6, 8})
	tw.header([]string{"Circuit", "K", "iters", "passes", "moves", "moves/pass", "gated%", "restarts", "peak", "time"})
	var total Outcome
	for _, name := range CircuitOrder {
		out := res[name][FPART]
		st := out.Stats
		tw.emit([]string{
			out.Circuit,
			fmt.Sprintf("%d", out.K),
			fmt.Sprintf("%d", st.Iterations),
			fmt.Sprintf("%d", st.Passes),
			fmt.Sprintf("%d", st.MovesApplied),
			fmt.Sprintf("%.1f", st.MovesPerPass()),
			fmt.Sprintf("%.1f", 100*st.GateRate()),
			fmt.Sprintf("%d", st.Restarts),
			fmt.Sprintf("%d", st.PeakBlocks),
			fmt.Sprintf("%.2fs", out.Elapsed.Seconds()),
		})
		total.K += out.K
		total.Elapsed += out.Elapsed
		total.Stats.Merge(st)
	}
	st := total.Stats
	tw.emit([]string{
		"Total",
		fmt.Sprintf("%d", total.K),
		fmt.Sprintf("%d", st.Iterations),
		fmt.Sprintf("%d", st.Passes),
		fmt.Sprintf("%d", st.MovesApplied),
		fmt.Sprintf("%.1f", st.MovesPerPass()),
		fmt.Sprintf("%.1f", 100*st.GateRate()),
		fmt.Sprintf("%d", st.Restarts),
		fmt.Sprintf("%d", st.PeakBlocks),
		fmt.Sprintf("%.2fs", total.Elapsed.Seconds()),
	})
	return nil
}
