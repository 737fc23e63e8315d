package engine

import (
	"context"
	"errors"
	"testing"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// TestUnplaceableNodeIsErrUnsplittable holds every partitioner — the
// table's methods, set cover and WCDP — to the shared input check: a node
// over S_MAX and a node over a resource cap are both ErrUnsplittable.
func TestUnplaceableNodeIsErrUnsplittable(t *testing.T) {
	pair := func(size, dsp int) *hypergraph.Hypergraph {
		var b hypergraph.Builder
		v := b.AddInterior("hog", size)
		w := b.AddInterior("w", 1)
		b.SetResource(v, "DSP", dsp)
		b.AddNet("n", v, w)
		return b.MustBuild()
	}
	dev := device.Device{Name: "d", DatasheetCells: 50, Pins: 64, Fill: 1.0,
		Resources: []device.Resource{{Name: "DSP", Cap: 4}}}
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"size", pair(999, 0)},
		{"resource", pair(1, 9)},
	}
	for _, method := range append(Names(), "setcover", "wcdp") {
		for _, tc := range cases {
			var err error
			if run, ok := goldenRuns[method]; ok {
				_, _, err = run(tc.h, dev)
			} else {
				_, err = Run(context.Background(), method, tc.h, dev, Options{})
			}
			if !errors.Is(err, core.ErrUnsplittable) {
				t.Errorf("%s/%s: err = %v, want core.ErrUnsplittable", method, tc.name, err)
			}
		}
	}
}
