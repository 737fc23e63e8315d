package main

import (
	"fmt"
	"os"
	"sort"
)

// e2eMetrics are the end-to-end metrics every untraced run prints, with
// their units. BENCHMARK.json lists the same names.
var e2eMetrics = map[string]string{
	"setup_s":     "s",
	"solve_s":     "s",
	"cpu_s":       "s",
	"peak_rss_mb": "MB",
	"devices":     "count",
	"cut":         "count",
	"ops":         "count",
}

// layerMetrics are the per-layer metrics every traced run prints. A
// layer a workload does not exercise reads 0.
var layerMetrics = map[string]string{
	"netlist.parse_s":           "s",
	"netlist.parse_mb_per_s":    "MB/s",
	"hypergraph.pins":           "count",
	"core.seed_s":               "s",
	"core.improve_s":            "s",
	"core.repair_s":             "s",
	"core.absorb_s":             "s",
	"core.iterations":           "count",
	"core.peak_blocks":          "count",
	"sanchis.passes":            "count",
	"sanchis.moves_evaluated":   "count",
	"sanchis.moves_applied":     "count",
	"sanchis.moves_gated":       "count",
	"sanchis.restarts":          "count",
	"gain.bucket_ops":           "count",
	"sanchis.moves_per_s":       "1/s",
	"sanchis.apply_yield":       "ratio",
	"mlfpart.coarsen_s":         "s",
	"mlfpart.refine_s":          "s",
	"mlfpart.levels":            "count",
	"mlfpart.refine_moves":      "count",
	"engine.dispatch_s":         "s",
	"board.route_s":             "s",
	"board.unroutable":          "count",
	"quality.analyze_s":         "s",
	"service.jobs":              "count",
	"service.job_p50_ms":        "ms",
	"service.job_p90_ms":        "ms",
	"service.submit_ms_p50":     "ms",
	"service.queue_wait_ms_p50": "ms",
	"service.queue_wait_ms_p90": "ms",
	"service.run_ms_p50":        "ms",
	"service.hit_ms_p50":        "ms",
	"service.fingerprint_s":     "s",
	"service.cache_hits":        "count",
	"service.coalesced":         "count",
	"service.computations":      "count",
	"service.degraded":          "count",
	"service.rejected":          "count",
	"service.hit_ratio":         "ratio",
	"store.entries":             "count",
	"store.bytes":               "bytes",
	"runtime.alloc_mb":          "MB",
	"runtime.mallocs":           "count",
	"runtime.gc_cycles":         "count",
	"runtime.gc_pause_ms":       "ms",
	"trace.spans":               "count",
	"trace.overhead_frac":       "ratio",
}

func init() {
	for _, l := range layers {
		layerMetrics["self."+l+"_s"] = "s"
	}
}

// complete fills metrics a workload does not produce with 0 and reports
// any name or unit outside the declared set, so every run of every
// workload prints the same names.
func complete(got map[string]metric, want map[string]string) error {
	var bad []string
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("undeclared metrics %v", bad)
	}
	for name, unit := range want {
		if _, ok := got[name]; !ok {
			got[name] = metric{0, unit}
		}
	}
	return nil
}

// pin is the expected quality of one workload variant.
type pin struct{ devices, cut int }

// pins are the recorded devices/cut of the default variant 0 and of one
// held-out variant of each workload. A seed only reorders the work, so
// every seed of a variant must read its pin; a run that reads otherwise
// is a quality change of the code, not noise. The fpartd-mix pins hold
// for its lists of pinnedCold cold jobs per client (untraced runs of 30 s).
var pins = map[string]map[int64]pin{
	"mcnc-table6": {0: {343, 5827}, 1: {343, 5781}},
	"rent-100k":   {0: {87, 6755}, 1: {82, 7394}},
	"fpartd-mix":  {0: {614, 10810}, 1: {613, 10786}},
}

const pinnedCold = 60

// pinVerdict compares the run's quality with the pin of its variant.
func (r *run) pinVerdict() string {
	p, ok := pins[r.workload][r.variant]
	switch {
	case !ok || (r.workload == "fpartd-mix" && coldPerClient(r.phase) != pinnedCold):
		return fmt.Sprintf("unpinned: devices %d cut %d", r.devices, r.cut)
	case p.devices == r.devices && p.cut == r.cut:
		return fmt.Sprintf("matches pin: devices %d cut %d", r.devices, r.cut)
	}
	msg := fmt.Sprintf("QUALITY CHANGE vs pin: devices %d (pin %d), cut %d (pin %d)", r.devices, p.devices, r.cut, p.cut)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	return msg
}
