package netlist_test

import (
	"fmt"
	"log"
	"strings"

	"fpart/internal/netlist"
)

// ExampleReadBLIF parses a tiny sequential circuit and lowers it to a
// hypergraph.
func ExampleReadBLIF() {
	blif := `
.model toggle
.inputs en clk
.outputs q
.names en q d
10 1
01 1
.latch d q re clk 0
.end
`
	c, err := netlist.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		log.Fatal(err)
	}
	h, err := c.Hypergraph()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model=%s gates=%d latches=%d\n", c.Name, len(c.Gates), len(c.Latches))
	fmt.Printf("hypergraph: %d interior, %d pads, %d flip-flops\n",
		h.NumInterior(), h.NumPads(), h.TotalResource("FF"))
	// Output:
	// model=toggle gates=1 latches=1
	// hypergraph: 2 interior, 3 pads, 1 flip-flops
}
