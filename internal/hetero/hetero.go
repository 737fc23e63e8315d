// Package hetero extends FPART to heterogeneous FPGA families: given a
// menu of priced device types, it minimizes the total device cost of a
// feasible partition — the problem of Kuznar, Brglez & Zajc (DAC 1994,
// reference [10] of the FPART paper; the paper itself fixes a single
// device type, §2: "we consider that all the subcircuits ... are
// implemented with the same device type").
//
// The method is partition-then-rightsize, swept over anchor devices:
//
//  1. For each device type D in the menu, run FPART targeting D.
//  2. Rightsize every resulting block to the cheapest device that fits it.
//  3. Keep the assignment with the lowest total cost.
//
// Rightsizing is exact per block (blocks never exceed their anchor device,
// and any smaller-or-equal device that fits is valid), so the result is
// always feasible when FPART's was.
package hetero

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// Priced attaches a cost to a device type.
type Priced struct {
	device.Device
	// Cost is the unit price in arbitrary units (e.g., dollars).
	Cost float64
}

// BlockAssignment describes one block of the final solution.
type BlockAssignment struct {
	Block     partition.BlockID
	Device    Priced
	Size      int
	Terminals int
}

// Result is the outcome of a heterogeneous partitioning run.
type Result struct {
	// Partition is the winning partition (produced under Anchor).
	Partition *partition.Partition
	// Anchor is the device type the winning FPART run targeted.
	Anchor Priced
	// Blocks lists the rightsized device assignment per non-empty block.
	Blocks []BlockAssignment
	// TotalCost is the summed device cost.
	TotalCost float64
	// K is the number of devices used.
	K        int
	Feasible bool
	Elapsed  time.Duration
}

// Partition minimizes total device cost over the menu.
func Partition(h *hypergraph.Hypergraph, menu []Priced, cfg core.Config) (*Result, error) {
	start := time.Now()
	if len(menu) == 0 {
		return nil, errors.New("hetero: empty device menu")
	}
	for _, d := range menu {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if d.Cost <= 0 {
			return nil, fmt.Errorf("hetero: device %s has non-positive cost %v", d.Name, d.Cost)
		}
		if d.Family != menu[0].Family {
			// A circuit is technology-mapped per family; CLB counts are
			// not comparable across families.
			return nil, fmt.Errorf("hetero: menu mixes families %v and %v", menu[0].Family, d.Family)
		}
	}
	// Cheapest-first menu for rightsizing.
	byPrice := append([]Priced(nil), menu...)
	sort.SliceStable(byPrice, func(i, j int) bool { return byPrice[i].Cost < byPrice[j].Cost })

	var best *Result
	for _, anchor := range menu {
		r, err := core.Partition(h, anchor.Device, cfg)
		if err != nil {
			// An anchor too small for some node is skipped, not fatal —
			// other menu entries may fit.
			if errors.Is(err, core.ErrUnsplittable) {
				continue
			}
			return nil, err
		}
		if !r.Feasible {
			continue
		}
		cand := Rightsize(r.Partition, anchor, byPrice)
		if best == nil || cand.TotalCost < best.TotalCost {
			best = cand
		}
	}
	if best == nil {
		return nil, errors.New("hetero: no menu device yields a feasible partition")
	}
	best.Elapsed = time.Since(start)
	return best, nil
}

// Rightsize assigns each non-empty block of p the cheapest device of the
// menu that fits it. A candidate fits when the block's size and terminal
// totals meet the scalar datasheet constraints AND every resource axis
// the candidate declares a cap for (vector-priced menus: a block that fits
// device A's LUT budget but exceeds its DSP cap must not rightsize into
// A). Resources a candidate does not declare are unconstrained on it,
// mirroring device.FitsRes. byPrice must be sorted cheapest-first;
// Partition prepares it that way.
func Rightsize(p *partition.Partition, anchor Priced, byPrice []Priced) *Result {
	res := &Result{Partition: p, Anchor: anchor, Feasible: true}
	// Per-block demand totals for every resource name any menu device
	// caps, accumulated in one pass per named column over the hypergraph
	// (the partition itself only tracks the anchor device's axes).
	h := p.Hypergraph()
	demand := map[string][]int{}
	for _, d := range byPrice {
		for _, r := range d.Resources {
			if _, done := demand[r.Name]; done {
				continue
			}
			col := h.ResourceColumn(r.Name)
			tot := make([]int, p.NumBlocks())
			if col != nil {
				for v, dem := range col {
					if dem > 0 {
						if b := p.Block(hypergraph.NodeID(v)); b >= 0 {
							tot[b] += int(dem)
						}
					}
				}
			}
			demand[r.Name] = tot
		}
	}
	resFits := func(d Priced, b partition.BlockID) bool {
		for _, r := range d.Resources {
			if demand[r.Name][b] > r.Cap {
				return false
			}
		}
		return true
	}
	for b := 0; b < p.NumBlocks(); b++ {
		id := partition.BlockID(b)
		if p.Nodes(id) == 0 {
			continue
		}
		res.K++
		assigned := false
		for _, d := range byPrice {
			if d.Fits(p.Size(id), p.Terminals(id)) && resFits(d, id) {
				res.Blocks = append(res.Blocks, BlockAssignment{
					Block: id, Device: d, Size: p.Size(id), Terminals: p.Terminals(id),
				})
				res.TotalCost += d.Cost
				assigned = true
				break
			}
		}
		if !assigned {
			// Cannot happen when the anchor itself is in the menu, but be
			// defensive: charge the anchor.
			res.Blocks = append(res.Blocks, BlockAssignment{
				Block: id, Device: anchor, Size: p.Size(id), Terminals: p.Terminals(id),
			})
			res.TotalCost += anchor.Cost
		}
	}
	return res
}

// XilinxMenu prices the paper's XC3000-family devices with plausible
// relative early-'90s prices (arbitrary units, roughly proportional to
// capacity). The XC2064 is excluded: it belongs to the XC2000 family,
// whose CLB counts are not comparable.
func XilinxMenu() []Priced {
	return []Priced{
		{Device: device.XC3020, Cost: 1.2},
		{Device: device.XC3042, Cost: 2.5},
		{Device: device.XC3090, Cost: 6.0},
	}
}
