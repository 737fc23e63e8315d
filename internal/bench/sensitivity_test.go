package bench

import (
	"bytes"
	"os"
	"testing"
)

// pickPoints returns the sensitivity points named series/value, in table
// order.
func pickPoints(t *testing.T, names ...[2]string) []point {
	t.Helper()
	var pts []point
	for _, p := range sensitivityPoints() {
		for _, n := range names {
			if p.series == n[0] && p.value == n[1] {
				pts = append(pts, p)
			}
		}
	}
	if len(pts) != len(names) {
		t.Fatalf("found %d of the %d points %v", len(pts), len(names), names)
	}
	return pts
}

// TestSensitivityGolden pins the cheap rows of the sensitivity table byte
// for byte: testdata/sensitivity.csv holds the header and these rows of
// `benchtables -table 8 -format csv`. Each row changes one published
// constant, so a row that silently ran the published configuration (the
// nSmall 0 point once did, because 0 selects the published N_small) reads
// the published sums instead. Regenerate only for a change meant to move
// a trajectory:
//
//	go run ./cmd/benchtables -table 8 -format csv | grep -E '^(series,|stackDepth,0,|nSmall,0,|ablation,pair-only,|extension,early stop)' > internal/bench/testdata/sensitivity.csv
func TestSensitivityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five configurations on the Tables 2-5 instances")
	}
	want, err := os.ReadFile("testdata/sensitivity.csv")
	if err != nil {
		t.Fatal(err)
	}
	pts := pickPoints(t,
		[2]string{"stackDepth", "0"},
		[2]string{"nSmall", "0"},
		[2]string{"ablation", "pair-only"},
		[2]string{"extension", "early stop 50"},
		[2]string{"extension", "early stop 200"})
	var got bytes.Buffer
	if err := writeSensitivity(&got, pts, CSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sensitivity rows differ from testdata/sensitivity.csv:\ngot\n%s\nwant\n%s", got.Bytes(), want)
	}
}

// TestSensitivityFillMonotone: derating every device to δ = 0.7 cannot
// need fewer devices in total than the full datasheet capacity δ = 1.0.
func TestSensitivityFillMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two configurations on the Tables 2-5 instances")
	}
	rows, err := runSensitivity(pickPoints(t, [2]string{"fill", "0.7"}, [2]string{"fill", "1"}))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].k < rows[1].k {
		t.Errorf("δ = 0.7 reads ΣK %d, fewer than δ = 1.0's %d", rows[0].k, rows[1].k)
	}
	if rows[0].m < rows[1].m {
		t.Errorf("δ = 0.7 reads ΣM %d, below δ = 1.0's %d", rows[0].m, rows[1].m)
	}
}

// TestSensitivityPoints: the published configuration is exactly one point
// of every constant's series and no row outside them, so each series runs
// through its published value and the table marks it once per series.
func TestSensitivityPoints(t *testing.T) {
	marked := map[string]int{}
	for _, p := range sensitivityPoints() {
		if p.published() {
			marked[p.series]++
		}
	}
	for _, s := range []string{"lambdaT", "lambdaR", "window.lower2", "window.lowerMulti", "window.upper", "stackDepth", "nSmall"} {
		if marked[s] != 1 {
			t.Errorf("series %s marks %d published points, want 1", s, marked[s])
		}
		delete(marked, s)
	}
	if len(marked) != 0 {
		t.Errorf("published configuration outside the constant series: %v", marked)
	}
}
