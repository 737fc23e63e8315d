package board

// Fuzz target for the board spec parser: arbitrary input must never
// panic, and an accepted board must be well formed. Run the seeds as a
// regular test, or explore with
// `go test -fuzz FuzzBoardParseSpec ./internal/board`.

import "testing"

func FuzzBoardParseSpec(f *testing.F) {
	f.Add("crossbar:4")
	f.Add("chain:8:wires=16")
	f.Add("mesh:4x4:wires=64")
	f.Add("mesh:3x2")
	f.Add("mesh:3x6148914691236517206") // COLS·ROWS wraps to 2
	f.Add("mesh:4294967296x4294967296") // wraps to 0
	f.Add("mesh:1x9223372036854775807")
	f.Add("chain:1000000000000")
	f.Add("crossbar:4:wires=2")
	f.Add("torus:9")
	f.Add("XC3020")
	f.Add("20000x2000")
	f.Add("LUT:1500,FF:3000,DSP:12/120")
	f.Fuzz(func(t *testing.T, spec string) {
		b, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a board that fails Validate: %v", spec, err)
		}
		if b.Slots > MaxSlots {
			t.Fatalf("ParseSpec(%q) = %d slots, past MaxSlots %d", spec, b.Slots, MaxSlots)
		}
		if b.Topology == Mesh && (b.Slots < b.Cols || b.Slots%b.Cols != 0) {
			t.Fatalf("ParseSpec(%q) = %+v: mesh slots must be a positive multiple of Cols", spec, b)
		}
	})
}
