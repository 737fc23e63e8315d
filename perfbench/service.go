package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpart/internal/board"
	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/quality"
	"fpart/internal/service"
	"fpart/internal/store"
)

// The fpartd-mix job shapes. Cold MCNC jobs are one of six circuits on
// one of three parts (10–400 ms each); cold vector jobs are stamped
// Rent's-rule netlists on a resource-vector part gated by a board. A
// vector job fits in at most 4 blocks, and both boards have enough slots
// and wires for that.
var (
	svcCircuits = []string{"c3540", "c5315", "c6288", "c7552", "s5378", "s9234"}
	svcParts    = []device.Device{device.XC3020, device.XC3042, device.XC3090}
	svcVectors  = []svcShape{
		{cells: 2000, board: "mesh:3x3:wires=400"},
		{cells: 2300, board: "chain:6:wires=640"},
		{cells: 2600, board: "mesh:3x3:wires=400"},
	}
	svcStamps = []gen.ResStamp{{Name: "DSP", Period: 16}, {Name: "BRAM", Period: 64}}
)

const (
	svcClients    = 2 // closed-loop clients, one per CPU of the reference host
	svcVectorSpec = "LUT:800,DSP:48,BRAM:12/256"
)

// svcShape is the kind of a cold job: an MCNC circuit on a part, or a
// vector netlist of some size on a board.
type svcShape struct {
	circuit string
	part    device.Device
	cells   int
	board   string
}

// svcShapes is one cycle of cold job shapes: every (circuit, part) pair
// once and every vector shape once (3 of 21, about 15%).
func svcShapes() []svcShape {
	var out []svcShape
	for _, c := range svcCircuits {
		for _, p := range svcParts {
			out = append(out, svcShape{circuit: c, part: p})
		}
	}
	return append(out, svcVectors...)
}

// svcInput is one uploaded netlist with the target it is submitted for.
type svcInput struct {
	name  string
	phg   []byte
	h     *hypergraph.Hypergraph // parsed in set-up, for the checker
	dev   device.Device
	board string
	body  []byte // the POST body
}

// svcJob is one step of a client's job list: a cold upload of input, or
// a resubmission of an earlier cold job of the same client.
type svcJob struct {
	input    int // index into the inputs
	resubmit bool
}

// svcOutcome is what a client saw for one job.
type svcOutcome struct {
	job            svcJob
	id             string
	t0, tResp, end time.Time
	cached         bool
	events         []obs.Event // traced rounds only
	err            string
}

// coldPerClient sizes a client's list: it scales with the run length and
// never drops below what the reported percentiles need (100 cold jobs,
// 150 jobs in all, so p90 of either has 10 samples beyond it).
func coldPerClient(seconds time.Duration) int {
	return max(50, 2*int(seconds.Seconds()))
}

// svcPlan renders every input and each client's job list. The variant
// chooses the cold inputs: each client's cold jobs cycle through the 21
// shapes. The seed orders a client's cold jobs and chooses where its
// resubmissions fall and which of its finished jobs they repeat. So a
// seed changes the order of the work and the queue it meets, not the
// computations.
func svcPlan(seed, variant int64, seconds time.Duration) ([]*svcInput, [][]svcJob, error) {
	var inputs []*svcInput
	lists := make([][]svcJob, svcClients)
	cold := coldPerClient(seconds)
	hits := cold / 2
	cycle := svcShapes()
	for c := range lists {
		mine := make([]int, cold)
		for j := range mine {
			in, err := svcNewInput(cycle[j%len(cycle)], variant, c, j)
			if err != nil {
				return nil, nil, err
			}
			inputs = append(inputs, in)
			mine[j] = len(inputs) - 1
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		sent := 0
		for sent < cold || len(lists[c])-sent < hits {
			leftCold, leftHits := cold-sent, hits-(len(lists[c])-sent)
			if sent > 0 && rng.Intn(leftCold+leftHits) < leftHits {
				lists[c] = append(lists[c], svcJob{input: mine[rng.Intn(sent)], resubmit: true})
				continue
			}
			lists[c] = append(lists[c], svcJob{input: mine[sent]})
			sent++
		}
	}
	return inputs, lists, nil
}

// svcNewInput renders client c's j-th cold input of shape sh.
func svcNewInput(sh svcShape, variant int64, c, j int) (*svcInput, error) {
	in := &svcInput{board: sh.board}
	var buf bytes.Buffer
	spec := sh.part.Name
	if sh.cells > 0 {
		gseed := variant*1_000_003 + int64(c)*10_007 + int64(j) + 1
		if err := gen.StreamPHG(&buf, sh.cells, sh.cells/12, gseed, true, svcStamps); err != nil {
			return nil, err
		}
		dev, err := device.ParseSpec(svcVectorSpec)
		if err != nil {
			return nil, err
		}
		in.name = fmt.Sprintf("vec%d-%d.%d.%d", sh.cells, variant, c, j)
		in.dev, spec = dev, svcVectorSpec
	} else {
		g, _ := gen.ByName(sh.circuit)
		g.Name = fmt.Sprintf("%s~%d.%d.%d", sh.circuit, variant, c, j)
		if err := netlist.WritePHG(&buf, gen.Generate(g, sh.part.Family)); err != nil {
			return nil, err
		}
		in.name = g.Name + "/" + sh.part.Name
		in.dev = sh.part
	}
	in.phg = buf.Bytes()
	body, err := json.Marshal(map[string]string{
		"format": "phg", "netlist": string(in.phg), "device": spec, "board": in.board, "method": "fpart",
	})
	in.body = body
	return in, err
}

// daemon is one in-process fpartd: service, disk store and loopback
// HTTP server.
type daemon struct {
	svc    *service.Service
	st     *store.Store
	dir    string
	srv    *http.Server
	served chan error
	base   string
}

// startDaemon opens a fresh store, starts the service with one worker
// and serves its handler on loopback until the health probe answers.
func startDaemon(dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	svc := service.New(service.Config{
		Workers:      1,
		SpecWidth:    1,
		CacheEntries: 4096, // every cold job of a run stays cached
		JobRetention: 4096,
		DegradeAt:    -1, // no method substitution: results stay comparable
		Store:        st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{svc: svc, st: st, dir: dir, srv: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the server and the service down, waits for both, and
// removes the store.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	<-d.served
	_ = d.svc.Shutdown(ctx)
	_ = os.RemoveAll(d.dir)
}

// runService is the fpartd-mix workload: two closed-loop HTTP clients
// upload netlists to an in-process fpartd with one worker.
func runService(r *run) error {
	inputs, lists, err := svcPlan(r.seed, r.variant, r.phase)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.outDir, fmt.Sprintf("store-%d", os.Getpid()))

	var d *daemon
	setups, parses := make([]float64, setupRepeats), make([]float64, setupRepeats)
	for i := range setups {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		for _, in := range inputs {
			if in.h, err = netlist.ReadPHG(bytes.NewReader(in.phg)); err != nil {
				return fmt.Errorf("%s: parse: %w", in.name, err)
			}
		}
		parses[i] = time.Since(t0).Seconds()
		if d, err = startDaemon(dir); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	r.setE2E("setup_s", median(setups), "s")
	inBytes, pins := 0, 0
	for _, in := range inputs {
		inBytes += len(in.phg)
		pins += in.h.NumPins()
	}
	r.setLayer("netlist.parse_s", median(parses), "s")
	r.setLayer("netlist.parse_mb_per_s", float64(inBytes)/1e6/median(parses), "MB/s")
	r.setLayer("hypergraph.pins", float64(pins), "count")

	mem := startMem()
	plain, err := r.svcRound(d, inputs, lists, nil)
	d.stop()
	if err != nil {
		return err
	}
	mem.report(r, 1)
	r.setE2E("solve_s", plain.makespan.Seconds(), "s")
	r.setE2E("cpu_s", plain.cpu.Seconds(), "s")
	r.setE2E("ops", float64(len(plain.outcomes)), "count")
	r.setE2E("devices", float64(r.devices), "count")
	r.setE2E("cut", float64(r.cut), "count")
	job, _, _ := plain.latencies()
	p50, _ := percentile(job, 0.5)
	p90, _ := percentile(job, 0.9)
	r.info["job_latency_ms"] = map[string]float64{"p50": p50, "p90": p90, "samples": float64(len(job))}
	r.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	if !r.trace {
		return nil
	}

	if d, err = startDaemon(dir); err != nil {
		return err
	}
	defer d.stop()
	tr := newTracer()
	for _, in := range inputs {
		in := in
		tr.timed("netlist.parse", "netlist", in.name, -1, func() { _, _ = netlist.ReadPHG(bytes.NewReader(in.phg)) })
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	traced, err := r.svcRound(d, inputs, lists, tr)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&msAfter)
	gcPause := time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs)
	r.setLayer("trace.overhead_frac", traced.makespan.Seconds()/plain.makespan.Seconds()-1, "ratio")
	return r.svcLayers(d, inputs, traced, tr, gcPause)
}

// round is one pass of every client over its job list.
type round struct {
	makespan time.Duration
	cpu      time.Duration // process CPU time while the clients ran
	outcomes []*svcOutcome
	views    []*service.JobView
}

// latencies returns, in ms, every successful job's client latency, its
// POST round trip, and the latency of the resubmissions (cache hits).
func (rd *round) latencies() (job, submit, hit []float64) {
	for _, o := range rd.outcomes {
		if o.err != "" {
			continue
		}
		job = append(job, ms(o.end.Sub(o.t0)))
		submit = append(submit, ms(o.tResp.Sub(o.t0)))
		if o.job.resubmit {
			hit = append(hit, ms(o.end.Sub(o.t0)))
		}
	}
	return job, submit, hit
}

// svcRound runs every client's list against d, then fetches each job's
// final view and checks it. With tr set, the clients decode the event
// streams for the spans.
func (r *run) svcRound(d *daemon, inputs []*svcInput, lists [][]svcJob, tr *tracer) (*round, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients * 2, DisableCompression: true}}
	defer client.CloseIdleConnections()

	per := make([][]*svcOutcome, len(lists))
	var wg sync.WaitGroup
	c0, start := cpuTime(), time.Now()
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, job := range lists[c] {
				per[c] = append(per[c], submitAndWait(client, d.base, inputs[job.input], job, tr != nil))
			}
		}(c)
	}
	wg.Wait()
	rd := &round{cpu: cpuTime() - c0}
	last := start
	for _, outs := range per {
		for _, o := range outs {
			rd.outcomes = append(rd.outcomes, o)
			if o.end.After(last) {
				last = o.end
			}
		}
	}
	rd.makespan = last.Sub(start)

	// Check every job after the measured phase, so the checker's own time
	// stays out of the latencies.
	r.devices, r.cut = 0, 0
	first := map[int]*service.JobView{}
	for _, o := range rd.outcomes {
		r.attempted++
		in := inputs[o.job.input]
		if o.err != "" {
			r.opFailed(in.name, "%s", o.err)
			rd.views = append(rd.views, nil)
			continue
		}
		v, err := fetchView(client, d.base, o.id)
		rd.views = append(rd.views, v)
		if err != nil {
			r.opFailed(in.name, "%v", err)
			continue
		}
		if msg := r.checkView(in, o, v, first); msg != "" {
			r.opFailed(in.name+" "+o.id, "%s", msg)
			continue
		}
		if !o.job.resubmit {
			// Only computations count: which finished jobs a seed
			// resubmits must not move the quality.
			r.devices += v.K
			r.cut += v.Quality.Cut
		}
	}
	return rd, nil
}

// checkView checks one finished job: terminal and feasible, the checker
// agrees with its K and quality cut, a board job routed, and a
// resubmission came from the cache with the first run's result.
func (r *run) checkView(in *svcInput, o *svcOutcome, v *service.JobView, first map[int]*service.JobView) string {
	if v.State != service.StateDone || v.Quality == nil {
		return fmt.Sprintf("state %s %s", v.State, v.Error)
	}
	if in.board != "" && (v.Board == nil || !v.Board.Routable) {
		return fmt.Sprintf("board %s not routed: %+v", in.board, v.Board)
	}
	c := claim{K: v.K, Cut: v.Quality.Cut, Feasible: v.Feasible}
	if msg := verify(in.h, in.dev, v.Assignment, c); msg != "" {
		return msg
	}
	r.selfTest(in.h, in.dev, v.Assignment, c)
	if !o.job.resubmit {
		first[o.job.input] = v
		return ""
	}
	orig := first[o.job.input]
	switch {
	case !v.Cached || !o.cached:
		return "resubmission was not a cache hit"
	case orig == nil || orig.K != v.K || orig.Quality.Cut != v.Quality.Cut:
		return "resubmission result differs from the first run"
	}
	return ""
}

// submitAndWait posts one job and waits until it is terminal: a cache
// hit answers 200 at once, otherwise the client reads the job's event
// stream, which ends when the job does.
func submitAndWait(client *http.Client, base string, in *svcInput, job svcJob, traced bool) *svcOutcome {
	o := &svcOutcome{job: job, t0: time.Now()}
	defer func() { o.end = time.Now() }()
	resp, err := client.Post(base+"/v1/partition", "application/json", bytes.NewReader(in.body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	var v service.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	o.tResp = time.Now()
	switch {
	case err != nil:
		o.err = "submit: " + err.Error()
		return o
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		o.err = fmt.Sprintf("submit: HTTP %d %s", resp.StatusCode, v.Error)
		return o
	}
	o.id, o.cached = v.ID, v.Cached
	if v.State == service.StateDone {
		return o
	}
	resp, err = client.Get(base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		o.err = err.Error()
		return o
	}
	defer resp.Body.Close()
	if !traced {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var ev obs.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err == nil {
				o.events = append(o.events, ev)
			}
		}
		err = sc.Err()
	}
	if err != nil {
		o.err = "events: " + err.Error()
	}
	return o
}

func fetchView(client *http.Client, base, id string) (*service.JobView, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "?assignment=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job view: HTTP %d", resp.StatusCode)
	}
	var v service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("job view: %w", err)
	}
	return &v, nil
}

// svcLayers sets the per-layer metrics of a traced round: client and
// Snapshot latencies, /metrics counters, store stats, the effort
// counters of the job views, and the layer calls the benchmark times
// itself on the finished results (fingerprint, analyze, board route,
// store read).
func (r *run) svcLayers(d *daemon, inputs []*svcInput, rd *round, tr *tracer, gcPause time.Duration) error {
	jobMS, submitMS, hitMS := rd.latencies()
	var waitMS, runMS []float64
	var st obs.Stats
	var pt [obs.NumPhases]float64
	var dispatch, fingerprint, analyze, route time.Duration
	unroutable := 0
	for i, o := range rd.outcomes {
		in, v := inputs[o.job.input], rd.views[i]
		if o.err != "" || v == nil {
			continue
		}
		root := tr.add("job", "service", o.id, -1, o.t0, o.end)
		tr.add("http.submit", "service", o.id, root, o.t0, o.tResp)
		if o.job.resubmit {
			continue
		}
		job, ok := d.svc.Job(o.id)
		if !ok {
			return fmt.Errorf("job %s no longer retained", o.id)
		}
		snap := d.svc.Snapshot(job)
		waitMS = append(waitMS, ms(snap.Started.Sub(snap.Submitted)))
		runMS = append(runMS, ms(snap.Finished.Sub(snap.Started)))
		tr.add("service.queue", "service", o.id, root, snap.Submitted, snap.Started)
		runID := tr.add("service.run", "engine", o.id, root, snap.Started, snap.Finished)
		tr.eventSpans(o.events, nil, snap.Started, o.id, runID)
		if res := snap.Result; res != nil {
			dispatch += snap.Finished.Sub(snap.Started) - res.Elapsed
		}
		if s := v.Stats; s != nil {
			addStats(&st, s)
			for p, t := range s.PhaseTime {
				pt[p] += t.Seconds()
			}
		}

		// The layer calls the service makes inside the job, timed here on
		// the same inputs from outside.
		t0 := time.Now()
		key := service.Fingerprint(in.h, in.dev, "fpart", in.board)
		t1 := time.Now()
		fingerprint += t1.Sub(t0)
		tr.add("service.fingerprint", "service", o.id, -1, t0, t1)
		if key != v.Key {
			r.problem("%s: fingerprint %s, job key %s", o.id, key, v.Key)
		}
		blocks := make([]partition.BlockID, len(v.Assignment))
		k := 0
		for n, b := range v.Assignment {
			blocks[n] = partition.BlockID(b)
			k = max(k, b+1)
		}
		p, err := partition.FromAssignment(in.h, in.dev, blocks, k)
		if err != nil {
			return fmt.Errorf("%s: rebuild partition: %w", o.id, err)
		}
		t0 = time.Now()
		quality.Analyze(p, v.M)
		t1 = time.Now()
		analyze += t1.Sub(t0)
		tr.add("quality.analyze", "quality", o.id, -1, t0, t1)
		if in.board != "" {
			b, err := board.ParseSpec(in.board)
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, rep, err := board.Route(p, b)
			t1 = time.Now()
			route += t1.Sub(t0)
			tr.add("board.route", "board", o.id, -1, t0, t1)
			if err != nil || !rep.Routable {
				unroutable++
			}
		}
		t0 = time.Now()
		_, found := d.st.Get(v.Key)
		tr.add("store.get", "store", o.id, -1, t0, time.Now())
		if !found {
			r.problem("%s: result not in the disk store", o.id)
		}
	}

	for _, p := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"service.job_p50_ms", jobMS, 0.5}, {"service.job_p90_ms", jobMS, 0.9},
		{"service.submit_ms_p50", submitMS, 0.5},
		{"service.queue_wait_ms_p50", waitMS, 0.5}, {"service.queue_wait_ms_p90", waitMS, 0.9},
		{"service.run_ms_p50", runMS, 0.5}, {"service.hit_ms_p50", hitMS, 0.5},
	} {
		v, ok := percentile(p.xs, p.p)
		if !ok {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond p%.0f", p.name, len(p.xs), minBeyond, p.p*100)
		}
		r.setLayer(p.name, v, "ms")
	}
	r.setLayer("service.jobs", float64(len(rd.outcomes)), "count")
	r.setLayer("service.fingerprint_s", fingerprint.Seconds(), "s")
	r.setLayer("quality.analyze_s", analyze.Seconds(), "s")
	r.setLayer("board.route_s", route.Seconds(), "s")
	r.setLayer("board.unroutable", float64(unroutable), "count")
	r.setLayer("engine.dispatch_s", dispatch.Seconds(), "s")

	prom, err := scrape(d.base)
	if err != nil {
		return err
	}
	for name, key := range map[string]string{
		"service.cache_hits":   "fpartd_cache_hits_total",
		"service.coalesced":    "fpartd_coalesced_total",
		"service.computations": "fpartd_computations_total",
		"service.degraded":     "fpartd_degraded_total",
		"service.rejected":     "fpartd_jobs_rejected_total",
	} {
		r.setLayer(name, prom[key], "count")
	}
	r.setLayer("service.hit_ratio", prom["fpartd_cache_hits_total"]/float64(len(rd.outcomes)), "ratio")
	ss := d.st.StatsNow()
	r.setLayer("store.entries", float64(ss.Entries), "count")
	r.setLayer("store.bytes", float64(ss.Bytes), "bytes")

	r.setEngineLayers(&st, pt)
	return tr.report(r, 1, map[string]time.Duration{"runtime": gcPause})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrape reads the plain counters and gauges of GET /metrics.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("metrics: " + resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}
