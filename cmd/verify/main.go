// Command verify checks a saved partitioning result against a circuit and
// a device: it reconstructs the partition from the assignment file,
// validates every device constraint, and prints the quality report.
//
// Usage:
//
//	fpart -device XC3020 -circuit s9234 -saveassign run.assign
//	verify -device XC3020 -circuit s9234 run.assign
//	verify -device XC3042 -format phg design.phg design.assign
//	verify -device 'CLB:500,FF:8/200' -format blif counter.blif run.assign
//
// The circuit is loaded as fpart loads it (BLIF inputs are mapped for the
// device's CLB family, with latches as the FF resource column), and
// -device takes the same specs as fpart's, resource vectors included.
//
// Exit status 0 means every block meets the device constraints.
package main

import (
	"flag"
	"fmt"
	"os"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/netlist"
	"fpart/internal/partition"
	"fpart/internal/quality"
)

func main() {
	devName := flag.String("device", "XC3020", "target device: a catalog name, CELLSxPINS, or a resource vector like 'LUT:1500,FF:3000/200'")
	format := flag.String("format", "phg", "circuit format when reading from file: phg, hgr, blif")
	circuit := flag.String("circuit", "", "built-in benchmark instead of a circuit file")
	flag.Parse()

	dev, err := device.ParseSpec(*devName)
	if err != nil {
		fail("%v", err)
	}
	src := driver.Source{Builtin: *circuit, Format: *format}
	assignPath := flag.Arg(0)
	if *circuit == "" {
		if flag.NArg() < 2 {
			fail("usage: verify [-device D] [-format F] <circuit file> <assignment file>")
		}
		src.Path, assignPath = flag.Arg(0), flag.Arg(1)
	}
	c, err := driver.Load(src, dev)
	if err != nil {
		fail("%v", err)
	}
	h := c.Hypergraph
	if assignPath == "" {
		fail("no assignment file given")
	}
	af, err := os.Open(assignPath)
	if err != nil {
		fail("%v", err)
	}
	blocks, k, err := netlist.ReadAssignment(af)
	af.Close()
	if err != nil {
		fail("%v", err)
	}
	p, err := partition.FromAssignment(h, dev, blocks, k)
	if err != nil {
		fail("%v", err)
	}
	if err := p.Validate(); err != nil {
		fail("internal inconsistency: %v", err)
	}
	rep := quality.Analyze(p, device.LowerBound(h, dev))
	rep.Write(os.Stdout)
	if !rep.Feasible {
		fmt.Fprintln(os.Stderr, "verify: INFEASIBLE")
		os.Exit(1)
	}
	fmt.Println("verify: OK")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "verify: "+format+"\n", args...)
	os.Exit(1)
}
