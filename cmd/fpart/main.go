// Command fpart partitions a circuit netlist onto a named FPGA device
// using the FPART algorithm (or one of the baselines).
//
// Usage:
//
//	fpart -device XC3020 design.phg
//	fpart -device XC3042 -format hgr -method flow design.hgr
//	fpart -device XC3090 -format blif -arch XC3000 design.blif
//	fpart -device XC3020 -circuit s9234                    # built-in benchmark
//	fpart -device XC3020 -circuit s9234 -stats             # quality + effort report
//	fpart -device XC3020 -circuit s9234 -timeout 10s       # bounded run
//	fpart -device XC3020 -circuit s9234 -trace-format text # event stream on stderr
//	fpart -device XC3020 -circuit s9234 -out dir/          # per-block netlists
//	fpart -list-methods                                    # engine registry listing
//
// BLIF inputs are technology-mapped to CLBs for the architecture selected
// with -arch before partitioning. Circuit loading and method dispatch are
// shared with the fpartd service via internal/driver.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fpart/internal/board"
	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/engine"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/obs"
	"fpart/internal/partition"
	"fpart/internal/quality"
	"fpart/internal/replicate"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fpart: %v\n", err)
		os.Exit(1)
	}
}

// run carries the whole invocation so deferred cleanup (profile teardown)
// survives error exits — a bare os.Exit in the middle of main would skip
// it and truncate the CPU profile.
func run() error {
	devName := flag.String("device", "XC3020", "target device: a catalog name (XC3020, XC3042, XC3090, XC2064), synthetic CELLSxPINS, or a resource vector like 'LUT:1500,FF:3000,DSP:12/200'")
	boardSpec := flag.String("board", "", "gate the result on a multi-FPGA board: crossbar:N, chain:N[:wires=W], or mesh:CxR[:wires=W]")
	format := flag.String("format", "phg", "input format: phg, hgr, blif")
	arch := flag.String("arch", "", "CLB architecture for BLIF mapping: XC2000 or XC3000 (default: the device's family)")
	method := flag.String("method", "fpart", "partitioner: "+engine.UsageString()+" (see -list-methods)")
	circuit := flag.String("circuit", "", "use a built-in synthetic MCNC benchmark instead of a file")
	assign := flag.Bool("assign", false, "print the full node-to-block assignment")
	stats := flag.Bool("stats", false, "print the solution-quality report (and, for -method fpart, the effort counters)")
	plot := flag.Bool("plot", false, "render the Figure 2 feasibility scatter (blocks in (T,S) space)")
	outDir := flag.String("out", "", "write each block as a PHG netlist into this directory")
	saveAssign := flag.String("saveassign", "", "write the node-to-block assignment to this file (verify with cmd/verify)")
	replicateFlag := flag.Bool("replicate", false, "after partitioning a BLIF input, run the functional replication pass (needs -format blif)")
	fill := flag.Float64("fill", 0, "override the device filling ratio δ (0 keeps the paper's value)")
	timeout := flag.Duration("timeout", 0, "abort partitioning after this duration, e.g. 30s (0 = no limit)")
	parallel := flag.Int("parallel", 0, "worker budget for portfolio racing (0 = all CPUs)")
	traceFormat := flag.String("trace-format", "", "stream algorithm events to stderr: text or json")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the partitioning run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (taken after partitioning) to this file")
	listMethods := flag.Bool("list-methods", false, "list the registered partitioning methods (budgeted column, summary) and exit")
	flag.Parse()

	if *listMethods {
		engine.WriteList(os.Stdout)
		return nil
	}

	dev, err := device.ParseSpec(*devName)
	if err != nil {
		return err
	}
	if *fill != 0 {
		dev = dev.WithFill(*fill)
	}
	var brd *board.Board
	if *boardSpec != "" {
		b, err := board.ParseSpec(*boardSpec)
		if err != nil {
			return err
		}
		brd = &b
	}

	c, err := driver.Load(driver.Source{
		Builtin: *circuit,
		Path:    flag.Arg(0),
		Format:  *format,
		Arch:    *arch,
	}, dev)
	if err != nil {
		if *circuit == "" && flag.Arg(0) == "" {
			return fmt.Errorf("no input file (or use -circuit <name>)")
		}
		return err
	}
	h := c.Hypergraph
	if *replicateFlag && c.Mapped == nil {
		return fmt.Errorf("-replicate requires -format blif (functional direction information)")
	}

	st := h.ComputeStats()
	m := device.LowerBound(h, dev)
	fmt.Printf("circuit %s: %d CLBs, %d pads, %d nets\n", c.Name, st.Interior, st.Pads, st.Nets)
	fmt.Printf("device %s: S_MAX=%d T_MAX=%d, lower bound M=%d\n", dev.Name, dev.SMax(), dev.TMax(), m)
	for _, r := range dev.Resources {
		fmt.Printf("  resource %s: cap %d per device, circuit total %d\n", r.Name, r.Cap, h.TotalResource(r.Name))
	}
	if brd != nil {
		fmt.Printf("board %s: %d slots", brd.Topology, brd.Slots)
		if brd.WiresPerLink > 0 {
			fmt.Printf(", %d wires/link", brd.WiresPerLink)
		}
		fmt.Println()
	}

	var sink obs.Sink
	switch *traceFormat {
	case "":
	case "text":
		sink = obs.NewTextSink(os.Stderr)
	case "json":
		sink = obs.NewJSONSink(os.Stderr)
	default:
		return fmt.Errorf("unknown trace format %q (valid: text, json)", *traceFormat)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stopProfiles, err := driver.StartProfiles(*cpuprofile, *memprofile, driver.StderrNotify)
	if err != nil {
		return err
	}
	// Deferred (not called inline after Run) so an aborted or panicking
	// run still leaves usable profiles of the work done.
	defer stopProfiles()

	res, err := driver.RunOpts(ctx, *method, h, dev, driver.Options{
		Sink:   sink,
		Budget: core.NewBudget(driver.ClampParallel(*parallel)),
		Board:  brd,
	})
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("timed out after %v (raise -timeout or relax the instance)", *timeout)
	}
	if err != nil {
		return err
	}
	fmt.Printf("FPART: %d iterations, %d passes, %d moves, %v\n",
		res.Stats.Iterations, res.Stats.Passes, res.Stats.MovesApplied, res.Elapsed.Round(time.Millisecond))
	p := res.Partition

	fmt.Printf("result: %d devices, feasible=%v, cut=%d\n", res.K, res.Feasible, p.Cut())
	if brd != nil {
		if res.Board == nil {
			fmt.Printf("board: UNPLACEABLE (%d blocks on %d slots)\n", res.K, brd.Slots)
		} else {
			fmt.Printf("board: %d inter-FPGA nets, %d hops, max link load %d, routable=%v\n",
				res.Board.InterNets, res.Board.TotalHops, res.Board.MaxLinkLoad, res.Board.Routable)
		}
	}
	if *stats {
		quality.Analyze(p, res.M).Write(os.Stdout)
		res.Stats.Report(os.Stdout)
	} else {
		for b := 0; b < p.NumBlocks(); b++ {
			id := partition.BlockID(b)
			if p.Nodes(id) == 0 {
				continue
			}
			status := "ok"
			if !p.Feasible(id) {
				status = "VIOLATES"
			}
			resCols := ""
			for r := 0; r < p.NumRes(); r++ {
				resCols += fmt.Sprintf("  %s %d/%d", dev.Resources[r].Name, p.Res(id, r), p.ResCap(r))
			}
			fmt.Printf("  block %2d: size %4d/%d  terminals %4d/%d  pads %3d%s  [%s]\n",
				b, p.Size(id), dev.SMax(), p.Terminals(id), dev.TMax(), p.Pads(id), resCols, status)
		}
	}
	if *plot {
		quality.FeasibilityPlot(os.Stdout, p, 64, 18)
	}
	if *assign {
		for v := 0; v < h.NumNodes(); v++ {
			fmt.Printf("%s %d\n", h.NodeName(hypergraph.NodeID(v)), p.Block(hypergraph.NodeID(v)))
		}
	}
	if *outDir != "" {
		if err := writeBlocks(*outDir, p); err != nil {
			return err
		}
	}
	if *replicateFlag && res.Feasible {
		rr, err := replicate.Reduce(c.Mapped, h, p, dev)
		if err != nil {
			return err
		}
		fmt.Printf("replication: %d copies added, total terminal reduction %d (feasible=%v)\n",
			rr.CopiesAdded, rr.TotalReduction(), rr.Feasible)
		for b, before := range rr.TerminalsBefore {
			if after := rr.TerminalsAfter[b]; after != before {
				fmt.Printf("  block %d: T %d -> %d (replicas %v)\n", b, before, after, rr.Replicas[b])
			}
		}
	}
	if *saveAssign != "" {
		f, err := os.Create(*saveAssign)
		if err != nil {
			return err
		}
		if err := netlist.WriteAssignment(f, p); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote assignment to %s\n", *saveAssign)
	}
	return nil
}

// writeBlocks dumps each non-empty block as blockN.phg under dir. Cut nets
// appear in each incident block's file with the pins that block owns.
func writeBlocks(dir string, p *partition.Partition) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	h := p.Hypergraph()
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if p.Nodes(id) == 0 {
			continue
		}
		sub, _ := h.Induced(p.NodesIn(id))
		path := filepath.Join(dir, fmt.Sprintf("block%d.phg", b))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := netlist.WritePHG(f, sub); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s)\n", path, sub)
	}
	return nil
}
