package fpart_test

// One benchmark per table of the paper, plus scaling, portfolio and
// early-stop benchmarks whose point is their time; the device-count
// ablations live in the sensitivity table (benchtables -table 8). Each
// device-table benchmark runs the implemented methods on every circuit of
// that table and reports the total device count as a custom metric, so
// `go test -bench=.` regenerates the comparison shape of Tables 2-5
// alongside wall-clock cost (Table 6's subject).

import (
	"bytes"
	"context"
	"fmt"
	"syscall"
	"testing"

	"fpart/internal/bench"
	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/mlfpart"
	"fpart/internal/netlist"
)

// benchOrder trims a table's circuit list under -short so the verify gate
// can exercise every benchmark in seconds instead of minutes. Full runs
// (scripts/bench.sh) use the complete paper grid.
func benchOrder(order []string) []string {
	if testing.Short() {
		return order[:2]
	}
	return order
}

// peakRSSKB reports the process high-water resident set in KiB, so the
// bench JSON can track the memory cost of pooled arenas alongside time.
func peakRSSKB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)
}

// BenchmarkTable1Generate regenerates the benchmark suite of Table 1 (all
// ten circuits, both technology mappings).
func BenchmarkTable1Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range gen.MCNC {
			gen.Generate(s, device.XC2000)
			gen.Generate(s, device.XC3000)
		}
	}
}

// tableBench runs every circuit of a device table with one method and
// reports the summed device count (the table's "Total" row).
func tableBench(b *testing.B, dev device.Device, circuits []string, m bench.Method) {
	b.Helper()
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, c := range circuits {
			out, err := bench.Run(c, dev, m)
			if err != nil {
				b.Fatal(err)
			}
			total += out.K
		}
	}
	b.ReportMetric(float64(total), "devices")
}

func BenchmarkTable2XC3020(b *testing.B) {
	for _, m := range []bench.Method{bench.FPART, bench.KwayX, bench.FlowMW} {
		b.Run(m.String(), func(b *testing.B) {
			tableBench(b, device.XC3020, benchOrder(bench.CircuitOrder), m)
		})
	}
}

func BenchmarkTable3XC3042(b *testing.B) {
	for _, m := range []bench.Method{bench.FPART, bench.KwayX, bench.FlowMW} {
		b.Run(m.String(), func(b *testing.B) {
			tableBench(b, device.XC3042, benchOrder(bench.CircuitOrder), m)
		})
	}
}

func BenchmarkTable4XC3090(b *testing.B) {
	for _, m := range []bench.Method{bench.FPART, bench.KwayX, bench.SC, bench.WCDP, bench.FlowMW, bench.Multilevel} {
		b.Run(m.String(), func(b *testing.B) {
			tableBench(b, device.XC3090, benchOrder(bench.CircuitOrder), m)
		})
	}
}

func BenchmarkTable5XC2064(b *testing.B) {
	for _, m := range []bench.Method{bench.FPART, bench.KwayX, bench.SC, bench.WCDP, bench.FlowMW, bench.Multilevel} {
		b.Run(m.String(), func(b *testing.B) {
			tableBench(b, device.XC2064, benchOrder(bench.Table5Order), m)
		})
	}
}

// BenchmarkTable6CPUTime measures FPART wall-clock per circuit and device —
// the quantity Table 6 reports in Sparc Ultra 5 seconds. Sub-benchmark
// names are circuit/device so `-bench Table6` prints the full grid. The
// effort counters passes/op, moves/op and bucketops/op show where a kernel
// change saves work.
func BenchmarkTable6CPUTime(b *testing.B) {
	devs := []device.Device{device.XC3020, device.XC3042, device.XC3090, device.XC2064}
	for _, name := range benchOrder(bench.CircuitOrder) {
		for _, dev := range devs {
			if dev.Name == device.XC2064.Name && bench.Table6Published[name][3] == 0 {
				continue // the paper reports "-" for s-circuits on XC2064
			}
			b.Run(name+"/"+dev.Name, func(b *testing.B) {
				spec, _ := gen.ByName(name)
				h := gen.Generate(spec, dev.Family)
				var passes, moves, bucketOps int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := core.Partition(h, dev, core.Default())
					if err != nil {
						b.Fatal(err)
					}
					passes += int64(r.Stats.Passes)
					moves += int64(r.Stats.MovesApplied)
					bucketOps += int64(r.Stats.BucketOps)
				}
				b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
				b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
				b.ReportMetric(float64(bucketOps)/float64(b.N), "bucketops/op")
				b.StopTimer()
				b.ReportMetric(peakRSSKB(), "peak-rss-kb")
			})
		}
	}
}

// BenchmarkTable6ResourceVector is the R>1 companion to Table6CPUTime: a
// Rent-style synthetic circuit with deterministic DSP/BRAM stamps (the
// gencircuit -resources path) peeled onto a vector device whose resource
// caps actually bind, so the per-resource windows and packed
// dominant-resource bound sit on the measured path. Table6CPUTime's rows
// stay R=1 and guard the scalar fast path; this one guards the vector
// generalization.
func BenchmarkTable6ResourceVector(b *testing.B) {
	sizes := []int{1000, 4000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	vdev, err := device.XC3042.WithResources([]device.Resource{
		{Name: "DSP", Cap: 8}, {Name: "BRAM", Cap: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("cells%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			stamps := []gen.ResStamp{{Name: "DSP", Period: 16}, {Name: "BRAM", Period: 64}}
			if err := gen.StreamPHG(&buf, n, n/12, 42, true, stamps); err != nil {
				b.Fatal(err)
			}
			h, err := netlist.ReadPHG(&buf)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := core.Partition(h, vdev, core.Default())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.K), "devices")
					if !r.Feasible {
						b.Fatalf("vector run infeasible at %d cells", n)
					}
				}
			}
		})
	}
}

// BenchmarkExtensionEarlyStop evaluates the paper's §5 future-work idea
// (b): stopping an FM pass once the solution drifts away from the feasible
// region, trading a little quality for time. It runs the hardest instance
// of Table 2 (s38584/XC3020, 2904 CLBs into 52 devices; s9234 under
// -short) and reports the device count next to the time; the sensitivity
// table (benchtables -table 8) sums the same rows over Tables 2-5.
func BenchmarkExtensionEarlyStop(b *testing.B) {
	circuit := "s38584"
	if testing.Short() {
		circuit = "s9234"
	}
	spec, _ := gen.ByName(circuit)
	h := gen.Generate(spec, device.XC3000)
	for _, stop := range []int{0, 50, 200} {
		name := "off"
		switch stop {
		case 50:
			name = "window50"
		case 200:
			name = "window200"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Default()
			cfg.Engine.EarlyStop = stop
			k := 0
			for i := 0; i < b.N; i++ {
				r, err := core.Partition(h, device.XC3020, cfg)
				if err != nil {
					b.Fatal(err)
				}
				k = r.K
				if !r.Feasible {
					k += 100 // make infeasibility loud in the metric
				}
			}
			b.ReportMetric(float64(k), "devices")
		})
	}
}

// BenchmarkScaling measures FPART wall-clock versus circuit size on
// synthetic circuits at a fixed device, extending Table 6's scaling story
// beyond the MCNC sizes.
func BenchmarkScaling(b *testing.B) {
	dev := device.XC3042
	sizes := []int{500, 1000, 2000, 4000, 8000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		b.Run(sizeName(n), func(b *testing.B) {
			h := gen.Synthetic(n, n/12, 42, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := core.Partition(h, dev, core.Default())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.K), "devices")
				}
			}
		})
	}
}

// BenchmarkMLFpartScale measures the multilevel engine on the synthetic
// netlists flat FPART cannot touch. BENCH_PR9.json records the full grid
// up to 10⁶ cells, perfbench's rent-100k workload re-measures the
// 10⁵-cell row, and the -short leg of verify.sh runs the 10⁴-cell row so
// the V-cycle path is exercised on every push. The device is a synthetic
// CELLSxPINS part so the block count stays modest as the circuit grows.
// coarse-nets/op and coarse-pins/op are the size of the graph the coarse
// peel runs on, after parallel-net merging.
func BenchmarkMLFpartScale(b *testing.B) {
	dev, ok := device.Parse("3000x800")
	if !ok {
		b.Fatal("device.Parse(3000x800)")
	}
	sizes := []int{10000, 100000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("cells%d", n), func(b *testing.B) {
			h := gen.Synthetic(n, n/200, 1, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := mlfpart.Partition(h, dev, mlfpart.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.K), "devices")
					b.ReportMetric(float64(r.CoarseNets), "coarse-nets/op")
					b.ReportMetric(float64(r.CoarsePins), "coarse-pins/op")
					if !r.Feasible {
						b.Fatalf("mlfpart infeasible at %d cells", n)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(peakRSSKB(), "peak-rss-kb")
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 500:
		return "n500"
	case 1000:
		return "n1000"
	case 2000:
		return "n2000"
	case 4000:
		return "n4000"
	default:
		return "n8000"
	}
}

// BenchmarkPortfolio compares the single published configuration against
// the 4-strategy portfolio (quality vs 4× work, run concurrently).
func BenchmarkPortfolio(b *testing.B) {
	spec, _ := gen.ByName("s13207")
	h := gen.Generate(spec, device.XC3000)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := core.Partition(h, device.XC3020, core.Default())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.K), "devices")
			}
		}
	})
	b.Run("portfolio4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := core.Portfolio(context.Background(), h, device.XC3020, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.K), "devices")
			}
		}
	})
}
