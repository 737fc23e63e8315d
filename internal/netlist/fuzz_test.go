package netlist

// Fuzz targets for every text parser: arbitrary input must never panic,
// and successfully parsed hypergraphs must round-trip through their
// writers. Run the seeds as regular tests, or explore with
// `go test -fuzz FuzzReadPHG ./internal/netlist`.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fpart/internal/hypergraph"
)

func FuzzReadPHG(f *testing.F) {
	f.Add("phg\nnode a 2\npad p\nnet n 0 1\n")
	f.Add("phg\n")
	f.Add("# comment only\nphg\nnode x 1\n")
	f.Add("phg\nnode a 1\nnet n 0 0 0\n")
	f.Add("phg\nnode a 1\nnet n " + strings.Repeat("0 ", 64) + "\n") // wide net
	f.Add("phg\n# " + strings.Repeat("y", 1<<12) + "\n")             // long line
	// NAME:DEMAND resource tokens: FF, several axes, zero, repeated,
	// malformed, and demands at and past the int32 column width.
	f.Add("phg\nnode a 1 FF:2\nnode b 3 FF:1 DSP:4\npad p\nnet n 0 1 2\n")
	f.Add("phg\nnode a 1 FF:0 BRAM:7\nnode b 1 BRAM:1 FF:3\nnet n 0 1\n")
	f.Add("phg\nnode a 1 FF:1 FF:5\n")
	f.Add("phg\nnode a 1 FF:\n")
	f.Add("phg\nnode a 1 :3\n")
	f.Add("phg\nnode a 1 FF:-1\n")
	f.Add("phg\nnode a 1 FF:2147483647\nnode b 1 FF:2147483648\nnet n 0 1\n")
	f.Add("phg\nnode a 2147483648\nnode b 1\nnet n 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadPHG(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePHG(&buf, h); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		h2, err := ReadPHG(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if err := samePHG(h, h2); err != nil {
			t.Fatalf("round trip drifted: %v", err)
		}
	})
}

// samePHG compares everything PHG carries except names, which the writer
// sanitizes: node kinds and sizes, resource names, columns and totals, and
// net pin lists. It also checks that a's totals match its packed columns,
// which fails if a parsed value wrapped on packing.
func samePHG(a, b *hypergraph.Hypergraph) error {
	if a.NumNodes() != b.NumNodes() || a.NumNets() != b.NumNets() {
		return fmt.Errorf("shape %v vs %v", a, b)
	}
	size := 0
	for v := 0; v < a.NumNodes(); v++ {
		id := hypergraph.NodeID(v)
		if a.KindOf(id) != b.KindOf(id) || a.SizeOf(id) != b.SizeOf(id) {
			return fmt.Errorf("node %d: %v/%d vs %v/%d", v, a.KindOf(id), a.SizeOf(id), b.KindOf(id), b.SizeOf(id))
		}
		if a.KindOf(id) == hypergraph.Interior {
			size += a.SizeOf(id)
		}
	}
	if size != a.TotalSize() {
		return fmt.Errorf("total size %d, packed sizes sum to %d", a.TotalSize(), size)
	}
	an, bn := a.ResourceNames(), b.ResourceNames()
	if !slices.Equal(an, bn) {
		return fmt.Errorf("resource names %q vs %q", an, bn)
	}
	for _, name := range an {
		if !slices.Equal(a.ResourceColumn(name), b.ResourceColumn(name)) {
			return fmt.Errorf("resource %s column differs", name)
		}
		sum := 0
		for _, d := range a.ResourceColumn(name) {
			sum += int(d)
		}
		if sum != a.TotalResource(name) || a.TotalResource(name) != b.TotalResource(name) {
			return fmt.Errorf("resource %s total %d vs %d, column sum %d", name, a.TotalResource(name), b.TotalResource(name), sum)
		}
	}
	for e := 0; e < a.NumNets(); e++ {
		if !slices.Equal(a.NetPins(hypergraph.NetID(e)), b.NetPins(hypergraph.NetID(e))) {
			return fmt.Errorf("net %d pins differ", e)
		}
	}
	return nil
}

func FuzzReadHgr(f *testing.F) {
	f.Add("2 3\n1 2\n2 3\n")
	f.Add("1 2 10\n1 2\n0\n3\n")
	f.Add("% comment\n1 1\n1\n")
	f.Add("999999999 999999999 10\n") // hostile header: huge declared counts
	f.Add("1 2\n1 " + strings.Repeat("2 ", 128) + "\n")
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadHgr(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteHgr(&buf, h); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		if _, err := ReadHgr(&buf); err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
	})
}

func FuzzReadBLIF(f *testing.F) {
	f.Add(".model m\n.inputs a\n.outputs z\n.names a z\n1 1\n.end\n")
	f.Add(".model m\n.latch a b re c 0\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs z\n.latch a q\n.latch q z\n.end\n")
	f.Add(".model m\n.names \\\na z\n.end\n")
	f.Add(".model m\n.inputs " + strings.Repeat("i ", 256) + "\n.end\n")
	f.Add(".model m\n.names " + strings.Repeat("\\\nx ", 32) + "z\n.end\n")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadBLIF(strings.NewReader(in))
		if err != nil {
			return
		}
		// Lowering a parsed circuit must not panic and must produce a
		// structurally valid hypergraph with one FF per latch.
		h, err := c.Hypergraph()
		if err != nil {
			return // duplicate drivers etc. are legitimate rejections
		}
		if got := h.TotalResource("FF"); got != len(c.Latches) {
			t.Fatalf("FF total %d, want one per latch (%d)", got, len(c.Latches))
		}
	})
}

func FuzzReadAssignment(f *testing.F) {
	f.Add("assign 2 2\n0 0\n1 1\n")
	f.Add("assign 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		blocks, k, err := ReadAssignment(strings.NewReader(in))
		if err != nil {
			return
		}
		if k < 1 {
			t.Fatalf("accepted k=%d", k)
		}
		for _, b := range blocks {
			if int(b) >= k || b < 0 {
				t.Fatalf("accepted out-of-range block %d", b)
			}
		}
	})
}

// Guard: the writers themselves never emit something their readers reject,
// even for adversarial names.
func TestWritersSanitizeNames(t *testing.T) {
	var b hypergraph.Builder
	v := b.AddInterior("we ird\tname", 1)
	u := b.AddInterior("", 1)
	b.AddNet("also bad", v, u)
	h := b.MustBuild()
	var buf bytes.Buffer
	if err := WritePHG(&buf, h); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPHG(&buf); err != nil {
		t.Fatalf("reader rejected sanitized output: %v", err)
	}
}
