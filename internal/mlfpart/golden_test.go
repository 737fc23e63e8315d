package mlfpart

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/multilevel"
)

// vcycleGoldenWant pins the default V-cycle on BenchmarkMLFpartScale's
// cells10000 instance: K, cut and an FNV-64a hash of the assignment, then
// one FNV-64a hash of FineToCoarse per coarse level. Any change to the
// matching (its visit order, its rating sums or their float rounding, its
// tie-breaks) moves a level hash; any change downstream of the hierarchy
// moves K, cut or the assignment hash.
const vcycleGoldenWant = "K=4 cut=236 hash=336eec9627464c05 f2c=06686f75e121da24/3aa499522b465d5a/05660d270b532ada/832181c4e32ad5e9/752dd3902267073c"

func TestVCycleGolden(t *testing.T) {
	h := gen.Synthetic(10000, 50, 1, false)
	dev, ok := device.Parse("3000x800")
	if !ok {
		t.Fatal("device.Parse(3000x800)")
	}
	r, err := Partition(h, dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Levels == 0 {
		t.Fatal("V-cycle did not coarsen")
	}
	hr, err := multilevel.BuildHierarchy(context.Background(), h, hierarchyConfig(h, dev, Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if hr.Depth() != r.Levels {
		t.Fatalf("hierarchy depth %d, run used %d levels", hr.Depth(), r.Levels)
	}
	var sb strings.Builder
	hash := fnv.New64a()
	for v := 0; v < h.NumNodes(); v++ {
		fmt.Fprintf(hash, "%d,", r.Partition.Block(hypergraph.NodeID(v)))
	}
	fmt.Fprintf(&sb, "K=%d cut=%d hash=%016x f2c=", r.K, r.Partition.Cut(), hash.Sum64())
	for i := 1; i <= hr.Depth(); i++ {
		hash.Reset()
		for _, c := range hr.FineToCoarse(i) {
			fmt.Fprintf(hash, "%d,", c)
		}
		if i > 1 {
			sb.WriteByte('/')
		}
		fmt.Fprintf(&sb, "%016x", hash.Sum64())
	}
	if got := sb.String(); got != vcycleGoldenWant {
		t.Errorf("cells10000/3000x800 V-cycle:\n got %s\nwant %s", got, vcycleGoldenWant)
	}
}
