package netlist

// Fuzz targets for every text parser: arbitrary input must never panic,
// and successfully parsed hypergraphs must round-trip through their
// writers. Run the seeds as regular tests, or explore with
// `go test -fuzz FuzzReadPHG ./internal/netlist`.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
		if err := sameGraph(h, h2); err != nil {
			t.Fatalf("round trip drifted: %v", err)
		}
	})
}

// sameGraph compares everything PHG and hMETIS carry except names, which
// the writers sanitize or drop: node kinds and sizes, resource names, columns and totals, and
// net pin lists. It also checks that a's totals match its packed columns,
// which fails if a parsed value wrapped on packing.
func sameGraph(a, b *hypergraph.Hypergraph) error {
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
	f.Add("1 2 10\n1 2\n2147483648\n1\n") // weight one past int32
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadHgr(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteHgr(&buf, h); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadHgr(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if err := sameGraph(h, back); err != nil {
			t.Fatalf("round trip: %v", err)
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
// even for adversarial names. Node and net names lose every rune the
// reader splits on; a resource name that cannot be one NAME:DEMAND token is
// an error, since renaming it would break its match against a device spec.
func TestWritersSanitizeNames(t *testing.T) {
	names := map[string]string{
		"we ird\tname": "we_ird_name",
		"":             "", // written as _<index>
		"cr\rlf\n":     "cr_lf_",
		"v\vf\f":       "v_f_",
		"nel\u0085":    "nel_",
		"nb\u00a0sp":   "nb_sp",
		"ls\u2028x":    "ls_x",
		"#hash":        "#hash",
	}
	var b hypergraph.Builder
	want := map[hypergraph.NodeID]string{}
	first := b.AddInterior("first", 1)
	for name, clean := range names {
		if name == "" {
			clean = fmt.Sprintf("_%d", b.NumNodes())
		}
		v := b.AddInterior(name, 1)
		want[v] = clean
		b.AddNet(name, first, v)
	}
	h := b.MustBuild()
	var buf bytes.Buffer
	if err := WritePHG(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPHG(&buf)
	if err != nil {
		t.Fatalf("reader rejected sanitized output: %v", err)
	}
	if err := sameGraph(h, back); err != nil {
		t.Fatal(err)
	}
	for v, clean := range want {
		if got := back.NodeName(v); got != clean {
			t.Errorf("node %q came back as %q, want %q", h.NodeName(v), got, clean)
		}
	}
	for e := 0; e < h.NumNets(); e++ {
		name, got := h.NetName(hypergraph.NetID(e)), back.NetName(hypergraph.NetID(e))
		if clean := names[name]; name != "" && got != clean {
			t.Errorf("net %q came back as %q, want %q", name, got, clean)
		}
	}

	for _, res := range []string{"A:B", "A B", "A\u00a0B", "A\rB"} {
		var rb hypergraph.Builder
		rb.SetResource(rb.AddInterior("v", 1), res, 2)
		if err := WritePHG(io.Discard, rb.MustBuild()); err == nil || !strings.Contains(err.Error(), "resource name") {
			t.Errorf("resource %q: WritePHG error %v, want a resource-name error", res, err)
		}
	}
}

// sameParse reports how two parses of one input differ. They agree when
// both fail with the same message, or both succeed with the same graph,
// node and net names included.
func sameParse(a *hypergraph.Hypergraph, aErr error, b *hypergraph.Hypergraph, bErr error) error {
	if aErr != nil || bErr != nil {
		if aErr == nil || bErr == nil || aErr.Error() != bErr.Error() {
			return fmt.Errorf("errors differ: %v vs %v", aErr, bErr)
		}
		var al, bl *LimitError
		if errors.As(aErr, &al) != errors.As(bErr, &bl) {
			return fmt.Errorf("only one of %v, %v is a *LimitError", aErr, bErr)
		}
		return nil
	}
	if err := sameGraph(a, b); err != nil {
		return err
	}
	for v := 0; v < a.NumNodes(); v++ {
		if an, bn := a.NodeName(hypergraph.NodeID(v)), b.NodeName(hypergraph.NodeID(v)); an != bn {
			return fmt.Errorf("node %d named %q vs %q", v, an, bn)
		}
	}
	for e := 0; e < a.NumNets(); e++ {
		if an, bn := a.NetName(hypergraph.NetID(e)), b.NetName(hypergraph.NetID(e)); an != bn {
			return fmt.Errorf("net %d named %q vs %q", e, an, bn)
		}
	}
	return nil
}

// diffLimits are the two limit sets the differential targets parse under:
// the defaults, and caps small enough that fuzzed inputs reach every
// LimitError.
var diffLimits = []Limits{{}, {MaxLineBytes: 96, MaxNodes: 6, MaxNets: 4, MaxPins: 5}}

// The byte tokenizer must split, number-parse and fail exactly like the
// strings.Fields reader it replaced.
func FuzzReadPHGMatchesFieldsReader(f *testing.F) {
	for _, in := range []string{
		"phg\nnode a 2\npad p\nnet n 0 1\n",
		"phg\nnode\u00a0a 1\npad\u2028p\nnet\u0085n 0\u00a01\n",
		"phg\r\nnode a 1\r\npad b\r\nnet n 0 1\r\n",
		"phg\nnode a\rb 1\nnode c\v2\fFF:1\n",
		"phg\nnode a\xff 1\nnode \xc3 2\nnet n\xe2\x80 0 1\n\xff\n",
		"phg\nnode a +2 FF:+0 DSP:007\nnode b 007\nnet n +0 -0 01 0001\n",
		"phg\nnode a 2147483647 FF:2147483647\nnode b 1 FF:-0\nnet n 0 1\n",
		"phg\nnode a 2147483648\n",
		"phg\nnode a -2147483648\n",
		"phg\nnode a 1 FF:2147483648\n",
		"phg\nnode a 1 FF:-2147483649\n",
		"phg\nnode a 1\nnet n 9223372036854775807\n",
		"phg\nnode a 1\nnet n -9223372036854775808\n",
		"phg\nnode a 1\nnet n 9223372036854775808\n",
		"phg\nnode a 1\nnet n 18446744073709551616\n", // 2⁶⁴: wraps to 0 in a uint64
		"phg\nnode a 1\nnet n + -\n",
		"\u00a0# comment\nphg\n\u2028#x y z\n\u0085\nnode a 1\n",
		"phg\nnode a 1 :3 FF\n",
		"phg\nnode a 1 FF:1:2\n",
		"phg\nnet n\n",
		"phg\npad\npad a b\nwire x\n",
		"phg\nnode a 1\nnode b 1\nnode c 1\nnode d 1\nnode e 1\nnode f 1\nnode g 1\n",
		"phg\nnode a 1\nnet n 0 0 0 0 0 0 0\n",
		"phg\n# " + strings.Repeat("y", 100) + "\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, lim := range diffLimits {
			h, err := ReadPHGLimits(strings.NewReader(in), lim)
			want, wantErr := readPHGFields(strings.NewReader(in), lim)
			if d := sameParse(h, err, want, wantErr); d != nil {
				t.Fatalf("limits %+v: tokenizer vs fields reader: %v", lim, d)
			}
		}
	})
}

func FuzzReadHgrMatchesFieldsReader(f *testing.F) {
	for _, in := range []string{
		"2 3\n1 2\n2 3\n",
		"2\u00a03\n1\u20282\n2\u00853\n",
		"1 2 10\r\n1 2\r\n0\r\n+3\r\n",
		"\u00a0% comment\n1 2\n\u2028%\n1 2\n",
		"1 2 010\n1 2\n",
		"+1 02\n+1 -0\n",
		"1 02 +10\n01 +2\n0\n1\n",
		"1 2 10\n1 2\n2147483647 x\n0\n",
		"1 2 10\n1 2\n2147483648\n1\n",
		"1 2 10\n1 2\n-2147483648\n1\n",
		"9223372036854775807 1\n",
		"9223372036854775808 1\n",
		"1 -9223372036854775808\n",
		"1 2\n18446744073709551617\n", // 2⁶⁴+1: wraps to 1 in a uint64
		"1 2\n1\xff 2\n",
		"\xff 2\n",
		"x y z\n",
		"1\n",
		"1 2 3 4\n",
		"1 7\n1 2 3 4 5 6 7\n",
		"1 2\n1 " + strings.Repeat("2 ", 64) + "\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, lim := range diffLimits {
			h, err := ReadHgrLimits(strings.NewReader(in), lim)
			want, wantErr := readHgrFields(strings.NewReader(in), lim)
			if d := sameParse(h, err, want, wantErr); d != nil {
				t.Fatalf("limits %+v: tokenizer vs fields reader: %v", lim, d)
			}
		}
	})
}
