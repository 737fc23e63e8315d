// Command benchtables regenerates the experimental tables of the FPART
// paper (Krupnova & Saucier, DATE 1999) on the synthetic benchmark suite.
//
// Usage:
//
//	benchtables              # all tables (1-8)
//	benchtables -table 2     # one table
//
// Tables 2-5 print the paper's published competitor columns (marked *)
// next to freshly measured results for the three methods implemented in
// this repository; Table 6 reports FPART runtimes. Tables 7 and 8 are this
// repository's additions: the FPART effort counters (iterations, passes,
// moves, window gating, stack restarts) collected through internal/obs,
// and the sensitivity of FPART's device count and cut to each published
// constant, ablation and extension, summed over the Tables 2-5 instances.
package main

import (
	"flag"
	"fmt"
	"os"

	"fpart/internal/bench"
	"fpart/internal/device"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (1-8); 0 = all")
	formatName := flag.String("format", "text", "rendering for tables 2-5, 7 and 8: text, md, csv")
	flag.Parse()

	format, err := bench.ParseFormat(*formatName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}

	run := func(n int) error {
		switch n {
		case 1:
			bench.WriteTable1(os.Stdout)
			return nil
		case 2, 3, 4, 5:
			return bench.WriteDeviceTableFormat(os.Stdout, n, format)
		case 6:
			return bench.WriteTable6(os.Stdout)
		case 7:
			return bench.WriteInstrumentation(os.Stdout, device.XC3020, format)
		case 8:
			return bench.WriteSensitivity(os.Stdout, format)
		default:
			return fmt.Errorf("no table %d (valid: 1-8)", n)
		}
	}

	tables := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if *table != 0 {
		tables = []int{*table}
	}
	for i, n := range tables {
		if i > 0 {
			fmt.Println()
		}
		if err := run(n); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
	}
}
