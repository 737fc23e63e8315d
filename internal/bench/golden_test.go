package bench

import (
	"bytes"
	"os"
	"testing"
)

// TestDeviceTablesGolden pins Tables 2–5 byte for byte: the CSV that
// `benchtables -table N -format csv` prints for N = 2..5, blank-line
// separated, is in testdata/tables2-5.csv. Every measured column is a
// final K of one engine on one instance, so a change to any engine's
// trajectory that moves a K shows up here. Regenerate the file only for a
// change meant to move a trajectory:
//
//	for n in 2 3 4 5; do [ $n -gt 2 ] && echo; go run ./cmd/benchtables -table $n -format csv; done > internal/bench/testdata/tables2-5.csv
func TestDeviceTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full partitioner suites")
	}
	want, err := os.ReadFile("testdata/tables2-5.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for n := 2; n <= 5; n++ {
		if n > 2 {
			got.WriteString("\n")
		}
		if err := WriteDeviceTableFormat(&got, n, CSV); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("Tables 2–5 differ from testdata/tables2-5.csv at line %d:\ngot  %q\nwant %q", i+1, g, w)
			}
		}
	}
}
