package netlist

import (
	"bytes"
	"testing"

	"fpart/internal/gen"
)

// BenchmarkReadPHG parses the Rent's-rule synthetic the rent-100k
// benchmark workload parses: 10⁵ cells and 500 pads, 10⁴ cells under
// -short. MB/s is input bytes per second.
func BenchmarkReadPHG(b *testing.B) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	var buf bytes.Buffer
	if err := gen.StreamPHG(&buf, n, 500, 1, false, nil); err != nil {
		b.Fatal(err)
	}
	in := buf.Bytes()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadPHG(bytes.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}
