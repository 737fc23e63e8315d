package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"fpart/internal/bench"
	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/obs"
	"fpart/internal/quality"
)

// instance is one engine call of a batch workload.
type instance struct {
	name   string
	method string
	dev    device.Device
	phg    []byte // pre-rendered input; parsing it is set-up
	h      *hypergraph.Hypergraph

	k, cut int // quality of the first pass; later passes must repeat it
}

// runTable6 is the mcnc-table6 workload: flat fpart over the paper's
// Table 6 grid, the 10 MCNC circuits × XC3020/3042/3090 plus the XC2064
// rows the paper reports (34 instances). Variant v ≠ 0 renames each
// circuit to name~v, which reseeds the generator with the Table 1 sizes
// kept. Seed s ≠ 0 shuffles the order of the instances.
func runTable6(r *run) error {
	devs := []device.Device{device.XC3020, device.XC3042, device.XC3090, device.XC2064}
	var insts []*instance
	for _, spec := range gen.MCNC {
		s := spec
		if r.variant != 0 {
			s.Name = fmt.Sprintf("%s~%d", spec.Name, r.variant)
		}
		phg := map[device.Family][]byte{}
		for di, dev := range devs {
			if di == 3 && bench.Table6Published[spec.Name][3] == 0 {
				continue // the paper reports "-" for s-circuits on XC2064
			}
			if phg[dev.Family] == nil {
				var buf bytes.Buffer
				if err := netlist.WritePHG(&buf, gen.Generate(s, dev.Family)); err != nil {
					return fmt.Errorf("render %s: %w", s.Name, err)
				}
				phg[dev.Family] = buf.Bytes()
			}
			insts = append(insts, &instance{name: s.Name + "/" + dev.Name, method: "fpart", dev: dev, phg: phg[dev.Family]})
		}
	}
	if r.seed != 0 {
		rng := rand.New(rand.NewSource(r.seed))
		rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	}
	return r.batch(insts)
}

// runRent is the rent-100k workload: mlfpart on a 10⁵-cell Rent's-rule
// synthetic with 500 pads targeting a 3000-cell, 800-pin part. Variant v
// draws generator seed v+1, so variant 0 is the BENCH_PR9 instance. With
// one instance there is nothing for the seed to order.
func runRent(r *run) error {
	dev, ok := device.Parse("3000x800")
	if !ok {
		return fmt.Errorf("device 3000x800 does not parse")
	}
	var buf bytes.Buffer
	if err := gen.StreamPHG(&buf, 100000, 500, r.variant+1, false, nil); err != nil {
		return fmt.Errorf("render rent-100k: %w", err)
	}
	name := fmt.Sprintf("rent100k-%d/%s", r.variant+1, dev.Name)
	return r.batch([]*instance{{name: name, method: "mlfpart", dev: dev, phg: buf.Bytes()}})
}

// batch sets the instances up, runs the measured phase, and (traced)
// a second, traced phase of the same length.
func (r *run) batch(insts []*instance) error {
	setups := make([]float64, setupRepeats)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		for _, in := range insts {
			h, err := netlist.ReadPHG(bytes.NewReader(in.phg))
			if err != nil {
				return fmt.Errorf("%s: parse: %w", in.name, err)
			}
			in.h = h
		}
		setups[i] = time.Since(t0).Seconds()
	}
	r.setE2E("setup_s", median(setups), "s")
	r.info["setup_samples_s"] = setups
	inBytes, pins := 0, 0
	for _, in := range insts {
		inBytes += len(in.phg)
		pins += in.h.NumPins()
	}
	r.setLayer("netlist.parse_s", median(setups), "s")
	r.setLayer("netlist.parse_mb_per_s", float64(inBytes)/1e6/median(setups), "MB/s")
	r.setLayer("hypergraph.pins", float64(pins), "count")

	mem := startMem()
	plain, err := r.measure(insts, nil)
	if err != nil {
		return err
	}
	mem.report(r, plain.passes)
	solve, cpu, dispatch := plain.sums()
	r.info["pass_solve_s"] = plain.passWall
	r.setE2E("solve_s", solve, "s")
	r.setE2E("cpu_s", cpu, "s")
	r.setE2E("ops", float64(len(insts)), "count")
	r.setLayer("engine.dispatch_s", dispatch, "s")
	for _, in := range insts {
		r.devices += in.k
		r.cut += in.cut
	}
	r.setE2E("devices", float64(r.devices), "count")
	r.setE2E("cut", float64(r.cut), "count")
	r.setE2E("peak_rss_mb", peakRSSMB(), "MB")

	if r.trace {
		tr := newTracer()
		traced, err := r.measure(insts, tr)
		if err != nil {
			return err
		}
		tsolve, _, _ := traced.sums()
		r.setLayer("trace.overhead_frac", tsolve/solve-1, "ratio")
		traced.reportEngine(r)
		if err := tr.report(r, traced.passes, map[string]time.Duration{"runtime": traced.gcPause}); err != nil {
			return err
		}
	}
	return nil
}

// phase is what one measured phase of a batch workload recorded.
type phase struct {
	passes int
	// wall, cpu and overhead hold one sample per pass for each instance;
	// overhead is RunOpts wall time minus the engine's own Elapsed.
	wall, cpu, overhead [][]float64
	// stats is each instance's last result's effort counters; phaseTime
	// its per-pass phase times.
	stats     []*obs.Stats
	phaseTime [][][obs.NumPhases]float64
	levels    int // CoarsenLevel events of one pass
	refMoves  int // RefineLevel moves of one pass
	analyze   []float64
	passWall  []float64 // Σ wall time over the instances, per pass
	gcPause   time.Duration
}

// measure runs passes over every instance for about r.phase, checks
// each result after its pass, and records the samples. With tr set, each
// pass also re-parses the inputs inside spans, and the engine calls run
// with an event sink whose events become spans.
func (r *run) measure(insts []*instance, tr *tracer) (*phase, error) {
	n := len(insts)
	ph := &phase{
		wall: make([][]float64, n), cpu: make([][]float64, n), overhead: make([][]float64, n),
		stats: make([]*obs.Stats, n), phaseTime: make([][][obs.NumPhases]float64, n),
	}
	results := make([]*driver.Result, n)
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	pass := 0
	passes, err := repeatFor(r.phase, func() error {
		pass++
		if tr != nil {
			for _, in := range insts {
				tr.timed("netlist.parse", "netlist", in.name, -1, func() { _, _ = netlist.ReadPHG(bytes.NewReader(in.phg)) })
			}
		}
		levels, refMoves, passWall := 0, 0, 0.0
		for i, in := range insts {
			runtime.GC()
			opts := driver.Options{Budget: r.budget, SpecWidth: 1}
			var rec *eventRecorder
			if tr != nil {
				rec = &eventRecorder{tr: tr}
				opts.Sink = rec
			}
			r.attempted++
			c0, t0 := cpuTime(), time.Now()
			res, err := driver.RunOpts(context.Background(), in.method, in.h, in.dev, opts)
			t1, c1 := time.Now(), cpuTime()
			results[i] = res
			if err != nil {
				r.opFailed(in.name, "%v", err)
				continue
			}
			ph.wall[i] = append(ph.wall[i], t1.Sub(t0).Seconds())
			passWall += t1.Sub(t0).Seconds()
			ph.cpu[i] = append(ph.cpu[i], (c1 - c0).Seconds())
			ph.overhead[i] = append(ph.overhead[i], (t1.Sub(t0) - res.Elapsed).Seconds())
			ph.stats[i] = res.Stats
			var pt [obs.NumPhases]float64
			if res.Stats != nil {
				for p, d := range res.Stats.PhaseTime {
					pt[p] = d.Seconds()
				}
			}
			ph.phaseTime[i] = append(ph.phaseTime[i], pt)
			if tr != nil {
				req := fmt.Sprintf("%s#%d", in.name, pass)
				id := tr.add("engine.run", "engine", req, -1, t0, t1)
				tr.eventSpans(rec.events, rec.recv, time.Time{}, req, id)
				for _, ev := range rec.events {
					switch ev.Type {
					case obs.CoarsenLevel:
						levels++
					case obs.RefineLevel:
						refMoves += ev.Moves
					}
				}
			}
		}
		ph.levels, ph.refMoves = levels, refMoves
		ph.passWall = append(ph.passWall, passWall)
		analyze := 0.0
		for i, in := range insts {
			if results[i] != nil {
				analyze += r.checkResult(in, results[i], pass, tr)
			}
		}
		ph.analyze = append(ph.analyze, analyze)
		return nil
	})
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	ph.gcPause = time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs)
	ph.passes = passes
	return ph, err
}

// checkResult verifies one result with the independent checker and the
// pins of the first pass, and returns the time quality.Analyze took.
func (r *run) checkResult(in *instance, res *driver.Result, pass int, tr *tracer) float64 {
	req := fmt.Sprintf("%s#%d", in.name, pass)
	t0 := time.Now()
	rep := quality.Analyze(res.Partition, res.M)
	t1 := time.Now()
	tr.add("quality.analyze", "quality", req, -1, t0, t1)
	assign := make([]int, in.h.NumNodes())
	for v := range assign {
		assign[v] = int(res.Partition.Block(hypergraph.NodeID(v)))
	}
	c := claim{K: res.K, Cut: rep.Cut, Feasible: res.Feasible}
	var msg string
	tr.timed("check", "check", req, -1, func() { msg = verify(in.h, in.dev, assign, c) })
	switch {
	case msg != "":
		r.opFailed(in.name, "%s", msg)
	case in.k == 0:
		in.k, in.cut = res.K, rep.Cut
	case res.K != in.k || rep.Cut != in.cut:
		// Not a failure: the checker accepted the result. It is recorded
		// because a pooled engine should repeat its first run exactly.
		r.repeatMismatches++
		fmt.Fprintf(os.Stderr, "perfbench: %s: pass %d gave K=%d cut=%d, the first pass K=%d cut=%d\n", in.name, pass, res.K, rep.Cut, in.k, in.cut)
	}
	if msg == "" {
		r.selfTest(in.h, in.dev, assign, c)
	}
	return t1.Sub(t0).Seconds()
}

// sums adds each instance's median over the passes: wall time, CPU time
// and dispatch overhead of one pass over every instance.
func (ph *phase) sums() (wall, cpu, overhead float64) {
	for i := range ph.wall {
		wall += median(ph.wall[i])
		cpu += median(ph.cpu[i])
		overhead += median(ph.overhead[i])
	}
	return wall, cpu, overhead
}

// reportEngine sets the engine-side per-layer metrics of a traced phase:
// exact counts from the last pass, phase times as per-instance medians
// summed over the instances.
func (ph *phase) reportEngine(r *run) {
	var st obs.Stats
	for _, s := range ph.stats {
		if s != nil {
			addStats(&st, s)
		}
	}
	var pt [obs.NumPhases]float64
	for _, samples := range ph.phaseTime {
		for p := range pt {
			xs := make([]float64, len(samples))
			for j, s := range samples {
				xs[j] = s[p]
			}
			pt[p] += median(xs)
		}
	}
	r.setEngineLayers(&st, pt)
	r.setLayer("mlfpart.levels", float64(ph.levels), "count")
	r.setLayer("mlfpart.refine_moves", float64(ph.refMoves), "count")
	r.setLayer("quality.analyze_s", median(ph.analyze), "s")
}

// addStats folds one run's effort counters into sum.
func addStats(sum, s *obs.Stats) {
	sum.Iterations += s.Iterations
	sum.PeakBlocks += s.PeakBlocks
	sum.Passes += s.Passes
	sum.MovesEvaluated += s.MovesEvaluated
	sum.MovesApplied += s.MovesApplied
	sum.MovesGated += s.MovesGated
	sum.Restarts += s.Restarts
	sum.BucketOps += s.BucketOps
}

// setEngineLayers sets the core, sanchis, gain and mlfpart phase-time
// metrics from summed effort counters and per-phase seconds.
func (r *run) setEngineLayers(st *obs.Stats, pt [obs.NumPhases]float64) {
	r.setLayer("core.seed_s", pt[obs.PhaseSeed], "s")
	r.setLayer("core.improve_s", pt[obs.PhaseImprove], "s")
	r.setLayer("core.repair_s", pt[obs.PhaseRepair], "s")
	r.setLayer("core.absorb_s", pt[obs.PhaseAbsorb], "s")
	r.setLayer("core.iterations", float64(st.Iterations), "count")
	r.setLayer("core.peak_blocks", float64(st.PeakBlocks), "count")
	r.setLayer("sanchis.passes", float64(st.Passes), "count")
	r.setLayer("sanchis.moves_evaluated", float64(st.MovesEvaluated), "count")
	r.setLayer("sanchis.moves_applied", float64(st.MovesApplied), "count")
	r.setLayer("sanchis.moves_gated", float64(st.MovesGated), "count")
	r.setLayer("sanchis.restarts", float64(st.Restarts), "count")
	r.setLayer("gain.bucket_ops", float64(st.BucketOps), "count")
	if pt[obs.PhaseImprove] > 0 {
		r.setLayer("sanchis.moves_per_s", float64(st.MovesApplied)/pt[obs.PhaseImprove], "1/s")
	}
	if st.MovesEvaluated > 0 {
		r.setLayer("sanchis.apply_yield", float64(st.MovesApplied)/float64(st.MovesEvaluated), "ratio")
	}
	r.setLayer("mlfpart.coarsen_s", pt[obs.PhaseCoarsen], "s")
	r.setLayer("mlfpart.refine_s", pt[obs.PhaseRefine], "s")
}
