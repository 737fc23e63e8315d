// Baselines: compare FPART against two baselines implemented here — the
// k-way.x-style recursive FM peeling (core.KWayX, FPART's own peel with
// its guidance switched off) and the flow-based FBB-MW-style method — on
// one benchmark, reporting block counts, fill quality, and runtime. This
// is one cell of Tables 2-5 expanded into detail.
//
//	go run ./examples/baselines                      # s13207 on XC3020
//	go run ./examples/baselines -circuit s38584 -device XC3042
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/flow"
	"fpart/internal/gen"
	"fpart/internal/partition"
)

func main() {
	name := flag.String("circuit", "s13207", "Table 1 circuit name")
	devName := flag.String("device", "XC3020", "device name")
	flag.Parse()

	spec, ok := gen.ByName(*name)
	if !ok {
		log.Fatalf("unknown circuit %q", *name)
	}
	dev, ok := device.ByName(*devName)
	if !ok {
		log.Fatalf("unknown device %q", *devName)
	}
	h := gen.Generate(spec, dev.Family)
	m := device.LowerBound(h, dev)
	fmt.Printf("%s on %s: %d CLBs, %d IOBs, lower bound M=%d\n\n",
		spec.Name, dev.Name, h.TotalSize(), h.NumPads(), m)

	type outcome struct {
		name     string
		p        *partition.Partition
		k        int
		feasible bool
		elapsed  time.Duration
	}
	var outs []outcome

	start := time.Now()
	fr, err := core.Partition(h, dev, core.Default())
	if err != nil {
		log.Fatal(err)
	}
	outs = append(outs, outcome{"FPART", fr.Partition, fr.K, fr.Feasible, time.Since(start)})

	start = time.Now()
	kr, err := core.Partition(gen.Generate(spec, dev.Family), dev, core.KWayX())
	if err != nil {
		log.Fatal(err)
	}
	outs = append(outs, outcome{"k-way.x", kr.Partition, kr.K, kr.Feasible, time.Since(start)})

	start = time.Now()
	wr, err := flow.Partition(gen.Generate(spec, dev.Family), dev, flow.Config{})
	if err != nil {
		log.Fatal(err)
	}
	outs = append(outs, outcome{"flow-MW", wr.Partition, wr.K, wr.Feasible, time.Since(start)})

	fmt.Printf("%-8s %8s %9s %9s %10s %9s\n", "method", "devices", "feasible", "avg fill", "avg pins", "time")
	for _, o := range outs {
		var fill, pins float64
		n := 0
		for b := 0; b < o.p.NumBlocks(); b++ {
			id := partition.BlockID(b)
			if o.p.Nodes(id) == 0 {
				continue
			}
			fill += float64(o.p.Size(id)) / float64(dev.SMax())
			pins += float64(o.p.Terminals(id)) / float64(dev.TMax())
			n++
		}
		fmt.Printf("%-8s %8d %9v %8.0f%% %9.0f%% %9v\n",
			o.name, o.k, o.feasible, 100*fill/float64(n), 100*pins/float64(n),
			o.elapsed.Round(1000000))
	}
	fmt.Printf("\nthe paper's shape: FPART <= flow-MW <= k-way.x in devices used,\nwith FPART pulling ahead on the largest benchmarks (Tables 2-5).\n")
}
