// Package board models the multi-FPGA board downstream of partitioning:
// blocks are placed onto board slots and the cut nets become inter-FPGA
// signals routed over the board's interconnect. This is the logic-emulation
// context the FPGA-partitioning literature targets (Chou et al. [3]:
// "circuit partitioning for huge logic emulation systems"): a partition
// with few cut nets is only as good as the board's ability to route them.
//
// Three interconnect topologies are modeled:
//
//   - Crossbar: every slot pair is directly connected (full custom wiring
//     or a programmable crossbar); routing always succeeds, cost is the
//     number of inter-FPGA signals.
//   - Chain: slots in a line, signals routed through intermediate slots;
//     per-adjacent-link wire capacity limits routability.
//   - Mesh: slots in a grid, X-then-Y deterministic routing.
package board

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fpart/internal/hypergraph"
	"fpart/internal/partition"
)

// Topology enumerates interconnect styles.
type Topology uint8

const (
	// Crossbar connects every slot pair directly.
	Crossbar Topology = iota
	// Chain connects slot i to slot i+1.
	Chain
	// Mesh arranges slots in a Cols-wide grid with 4-neighbour links.
	Mesh
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case Crossbar:
		return "crossbar"
	case Chain:
		return "chain"
	case Mesh:
		return "mesh"
	default:
		return fmt.Sprintf("Topology(%d)", uint8(t))
	}
}

// Board describes the physical carrier.
type Board struct {
	Slots    int
	Topology Topology
	// Cols is the mesh width (ignored otherwise).
	Cols int
	// WiresPerLink caps signals per adjacent link (Chain/Mesh); zero means
	// unlimited.
	WiresPerLink int
}

// Validate rejects degenerate boards.
func (b Board) Validate() error {
	if b.Slots < 1 {
		return fmt.Errorf("board: %d slots", b.Slots)
	}
	if b.Topology == Mesh && b.Cols < 1 {
		return fmt.Errorf("board: mesh requires Cols >= 1")
	}
	return nil
}

// coord returns mesh coordinates of a slot.
func (b Board) coord(slot int) (x, y int) {
	return slot % b.Cols, slot / b.Cols
}

// distance returns hop distance between two slots under the topology.
func (b Board) distance(a, c int) int {
	switch b.Topology {
	case Crossbar:
		if a == c {
			return 0
		}
		return 1
	case Chain:
		d := a - c
		if d < 0 {
			d = -d
		}
		return d
	case Mesh:
		ax, ay := b.coord(a)
		cx, cy := b.coord(c)
		dx, dy := ax-cx, ay-cy
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	default:
		return 0
	}
}

// Placement maps non-empty partition blocks to slots.
type Placement struct {
	// SlotOf maps each block ID to its slot (-1 for empty blocks).
	SlotOf []int
	Board  Board
}

// Report summarizes board-level routing of a placed partition.
type Report struct {
	InterNets   int  // nets spanning >= 2 slots
	TotalHops   int  // Σ spanning-tree hop counts over all inter nets
	MaxLinkLoad int  // busiest adjacent link (Chain/Mesh)
	Routable    bool // every link within WiresPerLink (always true for Crossbar)
}

// Place assigns blocks to slots. For the crossbar the identity order is
// used; for chains and meshes a greedy connectivity placement puts strongly
// connected blocks on adjacent slots: blocks are taken in decreasing total
// connectivity, each placed on the free slot minimizing hop-weighted cut to
// the already-placed blocks.
func Place(p *partition.Partition, b Board) (*Placement, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	var blocks []partition.BlockID
	for blk := 0; blk < p.NumBlocks(); blk++ {
		if p.Nodes(partition.BlockID(blk)) > 0 {
			blocks = append(blocks, partition.BlockID(blk))
		}
	}
	if len(blocks) > b.Slots {
		return nil, fmt.Errorf("board: %d blocks exceed %d slots", len(blocks), b.Slots)
	}
	pl := &Placement{SlotOf: make([]int, p.NumBlocks()), Board: b}
	for i := range pl.SlotOf {
		pl.SlotOf[i] = -1
	}

	// Block-to-block connectivity weights from cut nets.
	conn := make(map[[2]partition.BlockID]int)
	h := p.Hypergraph()
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if p.Span(ne) < 2 {
			continue
		}
		bs := p.Blocks(ne, nil)
		for i := 0; i < len(bs); i++ {
			for j := i + 1; j < len(bs); j++ {
				a, c := bs[i], bs[j]
				if a > c {
					a, c = c, a
				}
				conn[[2]partition.BlockID{a, c}]++
			}
		}
	}
	weight := func(a, c partition.BlockID) int {
		if a > c {
			a, c = c, a
		}
		return conn[[2]partition.BlockID{a, c}]
	}

	// Order blocks by total connectivity, heaviest first.
	total := map[partition.BlockID]int{}
	for pair, w := range conn {
		total[pair[0]] += w
		total[pair[1]] += w
	}
	sort.SliceStable(blocks, func(i, j int) bool {
		if total[blocks[i]] != total[blocks[j]] {
			return total[blocks[i]] > total[blocks[j]]
		}
		return blocks[i] < blocks[j]
	})

	usedSlot := make([]bool, b.Slots)
	for _, blk := range blocks {
		bestSlot, bestCost := -1, 1<<30
		for s := 0; s < b.Slots; s++ {
			if usedSlot[s] {
				continue
			}
			cost := 0
			for _, other := range blocks {
				os := pl.SlotOf[other]
				if os < 0 || other == blk {
					continue
				}
				cost += weight(blk, other) * b.distance(s, os)
			}
			if cost < bestCost {
				bestSlot, bestCost = s, cost
			}
		}
		pl.SlotOf[blk] = bestSlot
		usedSlot[bestSlot] = true
	}
	return pl, nil
}

// Evaluate routes every cut net over the board and reports interconnect
// usage. Nets are routed as stars from their lowest-slot terminal along
// shortest paths (X-then-Y on meshes); link loads accumulate per adjacent
// slot pair.
func (pl *Placement) Evaluate(p *partition.Partition) Report {
	h := p.Hypergraph()
	linkLoad := map[[2]int]int{}

	var rep Report
	for e := 0; e < h.NumNets(); e++ {
		ne := hypergraph.NetID(e)
		if p.Span(ne) < 2 {
			continue
		}
		slots := map[int]bool{}
		for _, blk := range p.Blocks(ne, nil) {
			if s := pl.SlotOf[blk]; s >= 0 {
				slots[s] = true
			}
		}
		if len(slots) < 2 {
			continue
		}
		rep.InterNets++
		ordered := make([]int, 0, len(slots))
		for s := range slots {
			ordered = append(ordered, s)
		}
		sort.Ints(ordered)
		root := ordered[0]
		for _, s := range ordered[1:] {
			rep.TotalHops += pl.routePath(root, s, linkLoad)
		}
	}
	rep.Routable = true
	for _, load := range linkLoad {
		if load > rep.MaxLinkLoad {
			rep.MaxLinkLoad = load
		}
	}
	if pl.Board.WiresPerLink > 0 && rep.MaxLinkLoad > pl.Board.WiresPerLink {
		rep.Routable = false
	}
	return rep
}

// routePath routes one signal from slot `from` to slot `to`, incrementing
// linkLoad for every adjacent slot pair traversed, and returns the hop
// count (always the shortest-path distance).
func (pl *Placement) routePath(from, to int, linkLoad map[[2]int]int) int {
	b := pl.Board
	hops := 0
	switch b.Topology {
	case Crossbar:
		if from != to {
			hops = 1
			key := [2]int{min(from, to), max(from, to)}
			linkLoad[key]++
		}
	case Chain:
		step := 1
		if to < from {
			step = -1
		}
		for s := from; s != to; s += step {
			key := [2]int{min(s, s+step), max(s, s+step)}
			linkLoad[key]++
			hops++
		}
	case Mesh:
		fx, fy := b.coord(from)
		tx, ty := b.coord(to)
		x, y := fx, fy
		stepX := func() {
			for x != tx {
				step := 1
				if tx < x {
					step = -1
				}
				a := y*b.Cols + x
				c := y*b.Cols + x + step
				linkLoad[[2]int{min(a, c), max(a, c)}]++
				x += step
				hops++
			}
		}
		stepY := func() {
			for y != ty {
				step := 1
				if ty < y {
					step = -1
				}
				a := y*b.Cols + x
				c := (y+step)*b.Cols + x
				linkLoad[[2]int{min(a, c), max(a, c)}]++
				y += step
				hops++
			}
		}
		// X-then-Y, unless the X-leg would run past the end of a ragged
		// last row (Cols ∤ Slots): slot fy*Cols+tx must exist for every
		// intermediate of the X-leg to exist. In the ragged case route
		// Y-first — the Y-leg moves along the source column through full
		// rows only (the source slot itself exists), and the X-leg then
		// runs in the target's row, which contains the target column by
		// definition. At most one of the two orders can be ragged-blocked,
		// so this stays deterministic.
		if fy*b.Cols+tx < b.Slots {
			stepX()
			stepY()
		} else {
			stepY()
			stepX()
		}
	}
	return hops
}

// Route is the post-peel board feasibility gate: it places the partition
// onto the board and routes the cut nets, returning the placement and the
// routing report. An error means the partition cannot even be placed
// (more non-empty blocks than slots, or a degenerate board).
func Route(p *partition.Partition, b Board) (*Placement, Report, error) {
	pl, err := Place(p, b)
	if err != nil {
		return nil, Report{}, err
	}
	return pl, pl.Evaluate(p), nil
}

// MaxSlots bounds the slot count ParseSpec accepts. Place allocates and
// scans one entry per slot for every block, so an unbounded spec such as
// "chain:1000000000000" would let one request exhaust memory and CPU; the
// bound is far above any real multi-FPGA board.
const MaxSlots = 4096

// ParseSpec parses a board description of the form
//
//	crossbar:N | chain:N[:wires=W] | mesh:CxR[:wires=W]
//
// e.g. "mesh:4x4:wires=64" is a 16-slot 4-wide mesh with 64 wires per
// adjacent link. A wires clause of 0 (or its absence) means unlimited.
// Boards of more than MaxSlots slots are rejected.
func ParseSpec(spec string) (Board, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return Board{}, fmt.Errorf("board: malformed spec %q (want crossbar:N, chain:N[:wires=W], or mesh:CxR[:wires=W])", spec)
	}
	var b Board
	switch parts[0] {
	case "crossbar":
		b.Topology = Crossbar
	case "chain":
		b.Topology = Chain
	case "mesh":
		b.Topology = Mesh
	default:
		return Board{}, fmt.Errorf("board: unknown topology %q in spec %q (want crossbar, chain, or mesh)", parts[0], spec)
	}
	if b.Topology == Mesh {
		cs, rs, ok := strings.Cut(parts[1], "x")
		if !ok {
			return Board{}, fmt.Errorf("board: mesh size %q is not of the form CxR", parts[1])
		}
		cols, err1 := strconv.Atoi(cs)
		rows, err2 := strconv.Atoi(rs)
		if err1 != nil || err2 != nil || cols < 1 || rows < 1 {
			return Board{}, fmt.Errorf("board: mesh size %q must be positive COLSxROWS", parts[1])
		}
		if rows > MaxSlots/cols {
			return Board{}, fmt.Errorf("board: mesh size %q in spec %q exceeds %d slots", parts[1], spec, MaxSlots)
		}
		b.Cols = cols
		b.Slots = cols * rows
	} else {
		n, err := strconv.Atoi(parts[1])
		if err != nil || n < 1 {
			return Board{}, fmt.Errorf("board: slot count %q must be a positive integer", parts[1])
		}
		if n > MaxSlots {
			return Board{}, fmt.Errorf("board: slot count %d in spec %q exceeds %d slots", n, spec, MaxSlots)
		}
		b.Slots = n
	}
	for _, opt := range parts[2:] {
		val, ok := strings.CutPrefix(opt, "wires=")
		if !ok {
			return Board{}, fmt.Errorf("board: unknown option %q in spec %q (want wires=W)", opt, spec)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return Board{}, fmt.Errorf("board: wires in %q must be a non-negative integer", opt)
		}
		if b.Topology == Crossbar && w > 0 {
			return Board{}, fmt.Errorf("board: wires=W does not apply to crossbar boards")
		}
		b.WiresPerLink = w
	}
	return b, b.Validate()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
