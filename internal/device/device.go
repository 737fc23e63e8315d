// Package device models the target FPGA devices of the FPART paper
// (Krupnova & Saucier, DATE 1999, §2 and §4).
//
// A device D = (S_MAX, T_MAX) is characterized by its logic-cell capacity
// and its terminal (IOB) count. S_MAX is derated from the datasheet cell
// count by a user-chosen filling ratio δ (0.9 in the paper's XC3000
// experiments, 1.0 for XC2064) to leave headroom for routing.
package device

import (
	"fmt"
	"strconv"
	"strings"

	"fpart/internal/hypergraph"
)

// Family identifies a Xilinx CLB architecture generation. The MCNC
// benchmarks of the paper are mapped once per family (Table 1).
type Family uint8

const (
	// XC2000 CLBs have a 4-input function generator; designs map to more,
	// smaller CLBs.
	XC2000 Family = iota
	// XC3000 CLBs have a 5-input function generator; designs map to fewer
	// CLBs.
	XC3000
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case XC2000:
		return "XC2000"
	case XC3000:
		return "XC3000"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// Resource is one named capacity axis beyond the primary logic-cell size:
// FF, DSP, BRAM on modern parts. §2 notes such secondary constraints are
// "handled like the size constraint" — each is a pure upper bound on the
// per-block demand total.
type Resource struct {
	Name string
	Cap  int
}

// Device describes one FPGA part.
type Device struct {
	Name string
	// Family is the CLB architecture the part belongs to; it selects which
	// technology-mapped variant of a benchmark the part consumes.
	Family Family
	// DatasheetCells is S_ds, the CLB count from the vendor datasheet.
	DatasheetCells int
	// Pins is T_MAX, the number of user I/O terminals (IOBs).
	Pins int
	// Fill is δ, the desired filling ratio applied to DatasheetCells.
	Fill float64
	// Deprecated: ignored. Flip-flops are the "FF" entry of Resources;
	// the field stays only for the benchmark harness's checker.
	AuxCap int
	// Resources lists the extra capacity axes beyond the primary size axis.
	// Empty for scalar parts: every scalar device is the R=1 special case
	// of the resource-vector model, and all pre-vector code paths treat it
	// identically by construction. Demands are matched to netlist resource
	// columns by name; a circuit with no column for an axis demands zero.
	Resources []Resource
}

// SMax returns S_MAX = floor(S_ds · δ), the usable logic capacity.
func (d Device) SMax() int {
	return int(float64(d.DatasheetCells) * d.Fill)
}

// TMax returns T_MAX, the terminal capacity.
func (d Device) TMax() int { return d.Pins }

// WithFill returns a copy of the device with filling ratio δ replaced.
func (d Device) WithFill(delta float64) Device {
	d.Fill = delta
	return d
}

// String renders the device with its effective capacities.
func (d Device) String() string {
	return fmt.Sprintf("%s(S_MAX=%d,T_MAX=%d,δ=%.2f)", d.Name, d.SMax(), d.TMax(), d.Fill)
}

// Validate reports an error for degenerate device descriptions.
func (d Device) Validate() error {
	if d.DatasheetCells <= 0 {
		return fmt.Errorf("device %s: datasheet cell count %d must be positive", d.Name, d.DatasheetCells)
	}
	if d.Pins <= 0 {
		return fmt.Errorf("device %s: pin count %d must be positive", d.Name, d.Pins)
	}
	if d.Fill <= 0 || d.Fill > 1.0 {
		return fmt.Errorf("device %s: fill ratio %.3f outside (0,1]", d.Name, d.Fill)
	}
	if d.SMax() < 1 {
		return fmt.Errorf("device %s: effective S_MAX is zero after fill derating", d.Name)
	}
	// Quadratic duplicate scan: R stays single-digit, and Validate runs
	// once per core.Run — a map here would cost an allocation per run.
	for i, r := range d.Resources {
		if r.Name == "" {
			return fmt.Errorf("device %s: resource with empty name", d.Name)
		}
		for _, prev := range d.Resources[:i] {
			if prev.Name == r.Name {
				return fmt.Errorf("device %s: duplicate resource name %q", d.Name, r.Name)
			}
		}
		if r.Cap <= 0 {
			return fmt.Errorf("device %s: resource %s cap %d must be positive", d.Name, r.Name, r.Cap)
		}
	}
	return nil
}

// Fits reports whether a block with the given size and terminal count meets
// the device constraints (the relation P ⊨ D of §2), ignoring the extra
// resource axes (see FitsRes).
func (d Device) Fits(size, terminals int) bool {
	return size <= d.SMax() && terminals <= d.TMax()
}

// FitsRes checks a vector of extra-resource demands against Resources,
// componentwise, positionally. Demands beyond len(Resources) are ignored;
// missing trailing demands count as zero — so a scalar block (nil demands)
// fits any resource vector and the R=1 device admits everything here.
func (d Device) FitsRes(demands []int) bool {
	for i, r := range d.Resources {
		if i < len(demands) && demands[i] > r.Cap {
			return false
		}
	}
	return true
}

// The experimental devices of the paper (§4), with the fill ratios used
// there: δ = 0.9 for the XC3000 parts, δ = 1.0 for XC2064.
var (
	XC2064 = Device{Name: "XC2064", Family: XC2000, DatasheetCells: 64, Pins: 58, Fill: 1.0}
	XC3020 = Device{Name: "XC3020", Family: XC3000, DatasheetCells: 64, Pins: 64, Fill: 0.9}
	XC3042 = Device{Name: "XC3042", Family: XC3000, DatasheetCells: 144, Pins: 96, Fill: 0.9}
	XC3090 = Device{Name: "XC3090", Family: XC3000, DatasheetCells: 320, Pins: 144, Fill: 0.9}
)

// Catalog lists the paper's devices in the order of Tables 2-5.
var Catalog = []Device{XC3020, XC3042, XC3090, XC2064}

// ByName resolves a device from Catalog by case-sensitive name.
func ByName(name string) (Device, bool) {
	for _, d := range Catalog {
		if d.Name == name {
			return d, true
		}
	}
	return Device{}, false
}

// Parse resolves a device name: a Catalog entry, or a synthetic
// "CELLSxPINS" part such as "20000x2000" — an XC3000-family device with
// the given datasheet cell and pin counts at the family's 0.9 fill. Large
// synthetic parts keep the block count modest on 10⁵–10⁶-cell netlists,
// where carving a million cells into 64-cell physical devices would need
// thousands of blocks (and the partitioner's dense per-net block rows
// would not fit in memory).
func Parse(name string) (Device, bool) {
	if strings.IndexByte(name, ':') >= 0 {
		d, err := ParseSpec(name)
		return d, err == nil
	}
	if d, ok := ByName(name); ok {
		return d, true
	}
	x := strings.IndexByte(name, 'x')
	if x <= 0 || x == len(name)-1 {
		return Device{}, false
	}
	cells, err1 := strconv.Atoi(name[:x])
	pins, err2 := strconv.Atoi(name[x+1:])
	if err1 != nil || err2 != nil || cells < 1 || pins < 1 {
		return Device{}, false
	}
	d := Device{Name: name, Family: XC3000, DatasheetCells: cells, Pins: pins, Fill: 0.9}
	if d.Validate() != nil {
		return Device{}, false
	}
	return d, true
}

// DefaultVectorPins is the T_MAX assumed for resource-vector specs that
// omit the "/T_MAX" suffix. Vector parts model modern dies whose pin
// budget rarely binds before a resource axis does, so the default is
// generous rather than paper-scale.
const DefaultVectorPins = 256

// ParseSpec resolves an extended device spec string. Accepted forms:
//
//	XC3020                        a Catalog part
//	20000x2000                    a synthetic CELLSxPINS part (Parse)
//	LUT:1500,FF:3000,DSP:12/120   a resource-vector part
//
// In the vector form the first NAME:CAP token is the primary size axis
// (S_MAX = CAP at fill 1.0, checked against node sizes, exactly like a
// scalar part), later tokens become extra Resources matched to netlist
// resource columns by name, and the optional "/T_MAX" suffix sets the pin
// budget (DefaultVectorPins when omitted). A single-token vector spec is
// therefore an R=1 device whose code paths are identical to a scalar part.
//
// Unlike Parse, malformed specs return an error naming the offending
// token: duplicate resource names, zero or negative caps, and tokens that
// are not NAME:CAP are all rejected.
func ParseSpec(spec string) (Device, error) {
	if strings.IndexByte(spec, ':') < 0 {
		d, ok := Parse(spec)
		if !ok {
			return Device{}, fmt.Errorf("unknown device %q (valid: a catalog name, CELLSxPINS, or NAME:CAP,NAME:CAP,.../T_MAX)", spec)
		}
		return d, nil
	}
	body, pinsStr, hasPins := strings.Cut(spec, "/")
	pins := DefaultVectorPins
	if hasPins {
		v, err := strconv.Atoi(pinsStr)
		if err != nil || v < 1 {
			return Device{}, fmt.Errorf("device %q: T_MAX suffix %q must be a positive integer", spec, pinsStr)
		}
		pins = v
	}
	d := Device{Name: spec, Family: XC3000, Pins: pins, Fill: 1.0}
	seen := map[string]bool{}
	for i, tok := range strings.Split(body, ",") {
		name, capStr, ok := strings.Cut(tok, ":")
		if !ok || name == "" || capStr == "" {
			return Device{}, fmt.Errorf("device %q: malformed resource token %q (want NAME:CAP)", spec, tok)
		}
		c, err := strconv.Atoi(capStr)
		if err != nil {
			return Device{}, fmt.Errorf("device %q: resource cap in token %q is not an integer", spec, tok)
		}
		if c <= 0 {
			return Device{}, fmt.Errorf("device %q: resource cap must be positive in token %q (got %d)", spec, tok, c)
		}
		if seen[name] {
			return Device{}, fmt.Errorf("device %q: duplicate resource name in token %q", spec, tok)
		}
		seen[name] = true
		if i == 0 {
			d.DatasheetCells = c
		} else {
			d.Resources = append(d.Resources, Resource{Name: name, Cap: c})
		}
	}
	if err := d.Validate(); err != nil {
		return Device{}, err
	}
	return d, nil
}

// WithResources returns a copy of the device with extra resource axes
// appended (the fpartd job schema composes catalog parts with a separate
// "resources" field this way). The combined device must validate.
func (d Device) WithResources(extra []Resource) (Device, error) {
	if len(extra) == 0 {
		return d, nil
	}
	d.Resources = append(append([]Resource(nil), d.Resources...), extra...)
	if err := d.Validate(); err != nil {
		return Device{}, err
	}
	return d, nil
}

// ParseResources parses a bare extra-resource list "NAME:CAP,NAME:CAP"
// (no primary axis, no pin suffix) — the fpartd job schema's "resources"
// field, which augments a named device. Rejections mirror ParseSpec.
func ParseResources(spec string) ([]Resource, error) {
	if spec == "" {
		return nil, nil
	}
	var out []Resource
	seen := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		name, capStr, ok := strings.Cut(tok, ":")
		if !ok || name == "" || capStr == "" {
			return nil, fmt.Errorf("resources %q: malformed token %q (want NAME:CAP)", spec, tok)
		}
		c, err := strconv.Atoi(capStr)
		if err != nil {
			return nil, fmt.Errorf("resources %q: cap in token %q is not an integer", spec, tok)
		}
		if c <= 0 {
			return nil, fmt.Errorf("resources %q: cap must be positive in token %q (got %d)", spec, tok, c)
		}
		if seen[name] {
			return nil, fmt.Errorf("resources %q: duplicate resource name in token %q", spec, tok)
		}
		seen[name] = true
		out = append(out, Resource{Name: name, Cap: c})
	}
	return out, nil
}

// LowerBound returns M = max(⌈S0/S_MAX⌉, ⌈|Y0|/T_MAX⌉), the theoretical
// minimum number of devices required to implement the circuit (§2).
//
// The size term uses the real-valued capacity S_ds·δ rather than the
// integer-floored per-block capacity: the paper's Table 2 reports M = 16 for
// s13207 on XC3020 (915 CLBs, capacity 64·0.9 = 57.6), which is
// ⌈915/57.6⌉ = 16, not ⌈915/57⌉ = 17. M is therefore a slightly optimistic
// bound — per-block feasibility still floors the capacity.
func LowerBound(h *hypergraph.Hypergraph, d Device) int {
	cap := float64(d.DatasheetCells) * d.Fill
	m := int(ceil(float64(h.TotalSize()) / cap))
	if io := ceilDiv(h.NumPads(), d.TMax()); io > m {
		m = io
	}
	// Each extra resource axis bounds M the same way the size axis does:
	// a circuit demanding 40 DSPs on a 12-DSP part needs ≥ ⌈40/12⌉ devices.
	for _, r := range d.Resources {
		if v := ceilDiv(h.TotalResource(r.Name), r.Cap); v > m {
			m = v
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// BlockCap returns 4·M+32, the block count at which every peeling
// partitioner stops for termination safety: a partition that needs more
// devices than that has failed to converge, not found a solution.
func BlockCap(m int) int { return 4*m + 32 }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ceil avoids importing math for one call site and keeps exact behaviour on
// integer-valued quotients.
func ceil(x float64) float64 {
	i := float64(int64(x))
	if x > i {
		return i + 1
	}
	return i
}
