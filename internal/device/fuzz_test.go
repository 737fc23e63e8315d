package device

// Fuzz target for the device spec parser: arbitrary input must never
// panic, and an accepted device must be usable as a partitioning target.
// Run the seeds as a regular test, or explore with
// `go test -fuzz FuzzDeviceParseSpec ./internal/device`.

import "testing"

func FuzzDeviceParseSpec(f *testing.F) {
	for _, d := range Catalog {
		f.Add(d.Name)
	}
	f.Add("20000x2000")
	f.Add("1x1")                   // S_MAX floors to zero at the 0.9 fill
	f.Add("9223372036854775807x9") // cells at MaxInt
	f.Add("LUT:1500,FF:3000,DSP:12/120")
	f.Add("LUT:64")
	f.Add("LUT:64,LUT:8") // duplicate axis
	f.Add("LUT:64,DSP:0") // zero cap
	f.Add("LUT:64/0")     // zero pins
	f.Add("LUT:64,:3/9")  // empty name
	f.Add("mesh:3x6148914691236517206")
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a device that fails Validate: %v", spec, err)
		}
		if d.SMax() < 1 || d.TMax() < 1 {
			t.Fatalf("ParseSpec(%q) = %v: S_MAX and T_MAX must be at least 1", spec, d)
		}
		for _, r := range d.Resources {
			if r.Cap < 1 {
				t.Fatalf("ParseSpec(%q): resource %s cap %d, want at least 1", spec, r.Name, r.Cap)
			}
		}
	})
}
