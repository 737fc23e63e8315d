package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/engine"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/setcover"
	"fpart/internal/wcdp"
)

// Method identifies a partitioner implemented in this repository.
type Method uint8

const (
	// FPART is the paper's algorithm (internal/core).
	FPART Method = iota
	// KwayX is the recursive-FM baseline (core.KWayX).
	KwayX
	// FlowMW is the flow-based baseline (internal/flow).
	FlowMW
	// Multilevel is the hMETIS-style multilevel baseline
	// (internal/multilevel) — a paradigm the paper predates; included for
	// perspective.
	Multilevel
	// WCDP is the ordering + dynamic-programming baseline
	// (internal/wcdp), reproducing the method of reference [6].
	WCDP
	// SC is the set-covering baseline (internal/setcover), reproducing
	// the method of reference [3].
	SC
)

// String names the method as used in table headers.
func (m Method) String() string {
	switch m {
	case FPART:
		return "FPART"
	case KwayX:
		return "k-way.x"
	case FlowMW:
		return "flow-MW"
	case Multilevel:
		return "multilevel"
	case WCDP:
		return "WCDP"
	case SC:
		return "SC"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Outcome is one measured partitioning run.
type Outcome struct {
	Circuit  string
	Device   device.Device
	Method   Method
	K        int
	M        int
	Feasible bool
	// Cut is the number of nets the partition cuts, each counted with its
	// weight.
	Cut     int
	Elapsed time.Duration
	// Stats carries the effort counters of the run. Every registry engine
	// reports them; WCDP and SC leave the zero value.
	Stats core.Stats
}

// Run generates the circuit for the device's family and partitions it with
// the given method.
func Run(circuit string, dev device.Device, m Method) (Outcome, error) {
	spec, ok := gen.ByName(circuit)
	if !ok {
		return Outcome{}, fmt.Errorf("bench: unknown circuit %q", circuit)
	}
	h := gen.Generate(spec, dev.Family)
	return RunOn(h, circuit, dev, m)
}

// engineNames maps the methods behind the engine registry to their
// registered names; WCDP and SC are not registered engines.
var engineNames = map[Method]string{
	FPART:      "fpart",
	KwayX:      "kwayx",
	FlowMW:     "flow",
	Multilevel: "multilevel",
}

// RunOn partitions an already-generated hypergraph.
func RunOn(h *hypergraph.Hypergraph, name string, dev device.Device, m Method) (Outcome, error) {
	out := Outcome{Circuit: name, Device: dev, Method: m, M: device.LowerBound(h, dev)}
	start := time.Now()
	switch m {
	case WCDP:
		r, err := wcdp.Partition(h, dev)
		if err != nil {
			return out, err
		}
		out.K, out.Feasible, out.Cut = r.K, r.Feasible, r.Partition.Cut()
	case SC:
		r, err := setcover.Partition(h, dev)
		if err != nil {
			return out, err
		}
		out.K, out.Feasible, out.Cut = r.K, r.Feasible, r.Partition.Cut()
	default:
		method, ok := engineNames[m]
		if !ok {
			return out, fmt.Errorf("bench: unknown method %v", m)
		}
		r, err := engine.Run(context.Background(), method, h, dev, engine.Options{})
		if err != nil {
			return out, err
		}
		out.K, out.Feasible, out.Cut, out.Stats = r.K, r.Feasible, r.Partition.Cut(), *r.Stats
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// Suite runs every (circuit, method) pair for one device concurrently and
// returns outcomes keyed by circuit then method.
func Suite(circuits []string, dev device.Device, methods []Method) (map[string]map[Method]Outcome, error) {
	outs := make([]Outcome, len(circuits)*len(methods))
	err := forEach(len(outs), func(i int) error {
		c, m := circuits[i/len(methods)], methods[i%len(methods)]
		out, err := Run(c, dev, m)
		if err != nil {
			return fmt.Errorf("%s/%s/%v: %w", c, dev.Name, m, err)
		}
		outs[i] = out
		return nil
	})
	results := make(map[string]map[Method]Outcome, len(circuits))
	for ci, c := range circuits {
		results[c] = make(map[Method]Outcome, len(methods))
		for mi, m := range methods {
			results[c][m] = outs[ci*len(methods)+mi]
		}
	}
	return results, err
}

// forEach calls fn(0), …, fn(n−1) on a pool of at most eight workers (one
// per GOMAXPROCS slot) and returns the error of the lowest failing index.
// The calls run in any order, so fn must write its result to slot i.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), 8); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cell renders a published integer, with "-" for unreported.
func cell(v int) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// WriteTable1 renders Table 1: benchmark circuit characteristics.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1. Benchmark circuits characteristics")
	fmt.Fprintf(w, "%-8s %6s %14s %14s %10s %10s\n",
		"Circuit", "#IOBs", "#CLBs XC2000", "#CLBs XC3000", "nets(3000)", "pins/net")
	for _, name := range CircuitOrder {
		spec, _ := gen.ByName(name)
		h := gen.Generate(spec, device.XC3000)
		st := h.ComputeStats()
		fmt.Fprintf(w, "%-8s %6d %14d %14d %10d %10.2f\n",
			name, spec.IOBs, spec.CLBs2000, spec.CLBs3000, st.Nets, st.AvgNetDegree)
	}
}

// deviceTable describes one of Tables 2-5.
type deviceTable struct {
	number    int
	dev       device.Device
	published map[string]Published
	order     []string
	// columns of published values to print, in order
	pubCols []pubCol
	// methods measured fresh for this table
	methods []Method
}

type pubCol struct {
	name string
	get  func(Published) int
}

func tableSpec(n int) (deviceTable, error) {
	switch n {
	case 2:
		return deviceTable{
			number: 2, dev: device.XC3020, published: Table2Published, order: CircuitOrder,
			pubCols: []pubCol{
				{"kway.x*", func(p Published) int { return p.KwayX }},
				{"r+p.0*", func(p Published) int { return p.RP0 }},
				{"PROP(p,o,p)*", func(p Published) int { return p.PropOP }},
				{"PROP(p,r,o,p)*", func(p Published) int { return p.PropROP }},
				{"FBB-MW*", func(p Published) int { return p.FBBMW }},
				{"FPART*", func(p Published) int { return p.FPART }},
			},
			methods: []Method{KwayX, FlowMW, FPART},
		}, nil
	case 3:
		dt, _ := tableSpec(2)
		dt.number = 3
		dt.dev = device.XC3042
		dt.published = Table3Published
		return dt, nil
	case 4:
		return deviceTable{
			number: 4, dev: device.XC3090, published: Table4Published, order: CircuitOrder,
			pubCols: []pubCol{
				{"kway.x*", func(p Published) int { return p.KwayX }},
				{"r+p.0*", func(p Published) int { return p.RP0 }},
				{"SC*", func(p Published) int { return p.SC }},
				{"WCDP*", func(p Published) int { return p.WCDP }},
				{"FBB-MW*", func(p Published) int { return p.FBBMW }},
				{"FPART*", func(p Published) int { return p.FPART }},
			},
			methods: []Method{KwayX, SC, WCDP, FlowMW, Multilevel, FPART},
		}, nil
	case 5:
		return deviceTable{
			number: 5, dev: device.XC2064, published: Table5Published, order: Table5Order,
			pubCols: []pubCol{
				{"kway.x*", func(p Published) int { return p.KwayX }},
				{"SC*", func(p Published) int { return p.SC }},
				{"WCDP*", func(p Published) int { return p.WCDP }},
				{"FBB-MW*", func(p Published) int { return p.FBBMW }},
				{"FPART*", func(p Published) int { return p.FPART }},
			},
			methods: []Method{KwayX, SC, WCDP, FlowMW, Multilevel, FPART},
		}, nil
	default:
		return deviceTable{}, fmt.Errorf("bench: no device table %d (tables 2-5)", n)
	}
}

// WriteDeviceTable regenerates Table n (2-5) in the default text format.
func WriteDeviceTable(w io.Writer, n int) error {
	return WriteDeviceTableFormat(w, n, Text)
}

// WriteDeviceTableFormat regenerates Table n (2-5): published reference
// columns (marked *) next to freshly measured columns for the methods
// implemented here, plus the measured lower bound M, rendered as text,
// markdown, or CSV.
func WriteDeviceTableFormat(w io.Writer, n int, format Format) error {
	dt, err := tableSpec(n)
	if err != nil {
		return err
	}
	methods := dt.methods
	results, err := Suite(dt.order, dt.dev, methods)
	if err != nil {
		return err
	}
	if format == Text {
		fmt.Fprintf(w, "Table %d. Results comparison on %s device (columns marked * are the paper's published values;\nmeasured columns are fresh runs on the synthetic suite)\n", dt.number, dt.dev.Name)
	}
	widths := make([]int, 0, len(dt.pubCols)+len(methods)+2)
	widths = append(widths, 8)
	header := []string{"Circuit"}
	for _, c := range dt.pubCols {
		header = append(header, c.name)
		widths = append(widths, 13)
	}
	for _, m := range methods {
		header = append(header, "meas "+m.String())
		widths = append(widths, 13)
	}
	header = append(header, "M")
	widths = append(widths, 4)
	tw := newTableWriter(w, format, widths)
	tw.header(header)

	totPub := make([]int, len(dt.pubCols))
	totMeas := make([]int, len(methods))
	totM := 0
	for _, name := range dt.order {
		pub := dt.published[name]
		row := []string{name}
		for i, c := range dt.pubCols {
			v := c.get(pub)
			totPub[i] += v
			row = append(row, cell(v))
		}
		for i, m := range methods {
			out := results[name][m]
			mark := ""
			if !out.Feasible {
				mark = "!"
			}
			totMeas[i] += out.K
			row = append(row, fmt.Sprintf("%d%s", out.K, mark))
		}
		m := results[name][FPART].M
		totM += m
		row = append(row, fmt.Sprintf("%d", m))
		tw.emit(row)
	}
	row := []string{"Total"}
	for _, v := range totPub {
		row = append(row, fmt.Sprintf("%d", v))
	}
	for _, v := range totMeas {
		row = append(row, fmt.Sprintf("%d", v))
	}
	row = append(row, fmt.Sprintf("%d", totM))
	tw.emit(row)
	return nil
}

// WriteTable6 regenerates Table 6: FPART execution times per circuit and
// device, published Sparc Ultra 5 seconds next to measured seconds on this
// host.
func WriteTable6(w io.Writer) error {
	devs := []device.Device{device.XC3020, device.XC3042, device.XC3090, device.XC2064}
	fmt.Fprintln(w, "Table 6. Execution time results (pub = paper's SUN Sparc Ultra 5 seconds, meas = this host)")
	fmt.Fprintf(w, "%-8s", "Circuit")
	for _, d := range devs {
		fmt.Fprintf(w, " %10s %10s", "pub "+d.Name[2:], "meas")
	}
	fmt.Fprintln(w)
	for _, name := range CircuitOrder {
		pub := Table6Published[name]
		fmt.Fprintf(w, "%-8s", name)
		for di, d := range devs {
			if d.Name == device.XC2064.Name && pub[di] == 0 {
				fmt.Fprintf(w, " %10s %10s", "-", "-")
				continue
			}
			out, err := Run(name, d, FPART)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10.2f %10.2f", pub[di], out.Elapsed.Seconds())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Totals sums a published column over a table for cross-checks.
func Totals(published map[string]Published, get func(Published) int) int {
	keys := make([]string, 0, len(published))
	for k := range published {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := 0
	for _, k := range keys {
		t += get(published[k])
	}
	return t
}
