package wcdp

import (
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
)

// TestSuiteShape pins WCDP's published position: feasible everywhere,
// behind the FM-family methods but in their neighbourhood.
func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, c := range []string{"c3540", "s9234", "s13207"} {
		spec, _ := gen.ByName(c)
		h := gen.Generate(spec, device.XC3000)
		for _, dev := range []device.Device{device.XC3042, device.XC3090} {
			r, err := Partition(h, dev)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Feasible {
				t.Errorf("%s/%s infeasible", c, dev.Name)
				continue
			}
			if r.K > 2*r.M {
				t.Errorf("%s/%s: K=%d > 2·M=%d", c, dev.Name, r.K, 2*r.M)
			}
			t.Logf("%s/%s: K=%d M=%d", c, dev.Name, r.K, r.M)
		}
	}
}
