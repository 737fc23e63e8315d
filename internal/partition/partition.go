// Package partition maintains the state of a multi-way partition of a
// circuit hypergraph: block assignment of every node, incrementally updated
// block sizes and terminal counts, the cut set, and the feasibility
// machinery of Krupnova & Saucier (DATE 1999): classification into feasible /
// semi-feasible / infeasible solutions (§2), the infeasibility-distance cost
// function (§3.3), and the lexicographic solution key (§3.4).
//
// Terminal counting: the terminal (I/O pin) count of block i is
//
//	T_i = |{nets incident to block i that also touch another block}| +
//	      |{pad nodes assigned to block i}|
//
// Every cut net consumes one pin on each block it touches, and every primary
// I/O pad consumes one IOB on its block. A net of weight w
// (hypergraph.NetWeight) counts as w parallel nets in the cut and in T_i;
// its pin counts and span are those of one net.
package partition

import (
	"fmt"
	"math/bits"

	"fpart/internal/device"
	"fpart/internal/hypergraph"
)

// BlockID identifies a block of the partition. Blocks are dense, 0..K-1.
type BlockID int32

// NoBlock is the nil block; used for "no remainder" in cost evaluation.
const NoBlock BlockID = -1

// Partition is a mutable k-way partition over a hypergraph. All nodes are
// always assigned to some block; a fresh Partition places everything in
// block 0. Partition is not safe for concurrent use.
type Partition struct {
	h   *hypergraph.Hypergraph
	dev device.Device

	assign []BlockID
	k      int

	blockSize   []int // Σ sizes of interior nodes per block
	blockCutInc []int // nets cut and incident, per block (weighted)
	blockPads   []int // pad nodes per block (T_i^E)
	blockNodes  []int // node count per block (interior + pads)

	// Per-net block state, packed structure-of-arrays: every net's span in
	// spans and a touched-block bitset in netTouch (twords words per net),
	// plus its per-block pin counts in one of two layouts.
	//
	// Dense rows (sparse == false; New, Reset, and Load of small nets·k):
	// one stride-wide row of pin counts per net in blockPins. stride (≥ k)
	// fixes the row width so PinCount and the Move inner loop are single
	// indexed loads. Load sizes it to exactly k; AddBlock doubles it
	// whenever k outgrows it.
	//
	// Slots (sparse == true; Load when nets·k > slotThreshold): net e owns
	// the NetDegree(e) entries of slots at its pin offset and holds its
	// Span(e) (block, count) pairs, unordered, in the first of them. A net
	// touches at most as many blocks as it has pins, so the slab is
	// pins-sized whatever k is. stride is then the bitset's capacity,
	// 64·twords, so AddBlock widens only the bitset.
	sparse    bool
	stride    int
	twords    int
	blockPins []int32
	spans     []int32
	netTouch  []uint64
	slots     []slot

	cut   int   // weighted count of nets with span >= 2
	moves int64 // total Move calls, for statistics

	// Incremental solution-cost aggregates, maintained by Move and AddBlock
	// so that CountFeasible, TerminalSum, Distance, and Classify are O(1)
	// per query instead of O(k) rescans. All four are exact integer sums
	// (no float drift): the infeasibility distance factors as
	// λ^S·sizeOver/S_MAX + λ^T·termOver/T_MAX, and the external-balance
	// numerator Σ max(0, |Y0| − m·T_i^E) is kept in integer form.
	feasCount int // blocks meeting the device constraints
	termSum   int // Σ_i T_i
	sizeOver  int // Σ_i max(0, S_i − S_MAX)
	termOver  int // Σ_i max(0, T_i − T_MAX)
	ebM       int // m for which ebNum is valid; 0 = cache empty
	ebNum     int // Σ_i max(0, |Y0| − m·T_i^E) for m = ebM

	// Device capacities cached at construction (the device is immutable for
	// the partition's lifetime): SMax() redoes float arithmetic on every
	// call, too slow for the per-move aggregate update.
	smax, tmax int

	// Resource-vector state, active only when the device declares extra
	// resource axes (nres > 0). Scalar devices keep nres == 0 and every
	// pre-vector code path — Move, aggUpdate, Feasible, Distance — runs
	// exactly as before: the R=1 fast path is one predicate test per call.
	nres     int       // extra resource axes beyond the primary size axis
	resCaps  []int     // per-axis cap, from dev.Resources
	resOf    [][]int32 // per-axis packed node demand column (nil = all-zero)
	blockRes []int     // per-block demand totals, nres-stride rows: [b*nres+r]
	resOver  []int     // Σ_b max(0, blockRes[b][r] − cap_r), per axis
}

// slot is one (block, pin count) pair of a net in the slot layout.
type slot struct {
	block BlockID
	count int32
}

// slotThreshold is the nets·k product above which Load stores per-net
// state as slots rather than dense rows. It bounds memory, not time: the
// rows under it take at most 4 MB. Measured both ways, slots slowed the
// multilevel method's two-block kernel on Load-built partitions by a few
// percent, and neither layout was faster for mlfpart from 7·10⁴ to
// 1.3·10⁷ entries (EXPERIMENTS.md "Per-net pin-count slots"). Every
// partition that New or Reset builds keeps dense rows.
const slotThreshold = 1 << 20

func max0(x int) int {
	if x < 0 {
		return 0
	}
	return x
}

// growZeroed returns buf resized to n with every element zeroed, reusing
// its backing array when it is large enough.
func growZeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// FromAssignment builds a partition of h with k blocks from an explicit
// per-node block mapping (e.g., one loaded from an assignment file). The
// mapping must cover every node with blocks in [0, k). It is Load on a
// fresh Partition.
func FromAssignment(h *hypergraph.Hypergraph, dev device.Device, blocks []BlockID, k int) (*Partition, error) {
	p := &Partition{}
	if err := p.Load(h, dev, blocks, k); err != nil {
		return nil, err
	}
	return p, nil
}

// Load rebinds p to hypergraph h on device dev and sets it to the k-block
// partition given by blocks, reusing every buffer that still fits. The
// mapping must cover every node with blocks in [0, k); on error p is left
// untouched. Load builds all incremental state — per-net pin counts, spans,
// the cut, the per-block totals, and the cost aggregates — in one counting
// sweep. It picks the per-net layout from the product nets·k: up to
// slotThreshold it builds dense rows of width exactly k, in O(pins + n + k)
// plus clearing the nets·k slab; above it, pins-sized slots in
// O(Σ_e degree(e)·span(e) + n + k). The result equals the partition that
// New followed by k−1 AddBlock calls and one Move per node would build, in
// every observable, except that Moves() reads 0 and the external-balance
// cache starts empty. The multilevel engine loads every uncoarsening level
// into one presized arena this way.
func (p *Partition) Load(h *hypergraph.Hypergraph, dev device.Device, blocks []BlockID, k int) error {
	return p.load(h, dev, blocks, k, h.NumNets()*k > slotThreshold)
}

// load is Load with the per-net layout given.
func (p *Partition) load(h *hypergraph.Hypergraph, dev device.Device, blocks []BlockID, k int, sparse bool) error {
	n := h.NumNodes()
	if len(blocks) != n {
		return fmt.Errorf("partition: assignment covers %d of %d nodes", len(blocks), n)
	}
	if k < 1 {
		return fmt.Errorf("partition: k = %d", k)
	}
	for v, b := range blocks {
		if b < 0 || int(b) >= k {
			return fmt.Errorf("partition: node %d assigned to block %d of %d", v, b, k)
		}
	}
	p.h, p.dev = h, dev
	p.k = k
	p.smax, p.tmax = dev.SMax(), dev.TMax()
	p.assign = append(p.assign[:0], blocks...)
	p.bindResources(h, dev)

	// Per-block totals: one pass over the nodes.
	p.blockSize = growZeroed(p.blockSize, k)
	p.blockCutInc = growZeroed(p.blockCutInc, k)
	p.blockPads = growZeroed(p.blockPads, k)
	p.blockNodes = growZeroed(p.blockNodes, k)
	p.blockRes = growZeroed(p.blockRes, k*p.nres)
	for v, b := range blocks {
		id := hypergraph.NodeID(v)
		p.blockSize[b] += h.SizeOf(id)
		p.blockNodes[b]++
		if h.KindOf(id) == hypergraph.Pad {
			p.blockPads[b]++
		}
		for r, col := range p.resOf {
			if col != nil {
				p.blockRes[int(b)*p.nres+r] += int(col[v])
			}
		}
	}

	// Per-net state: one pass over the pins.
	nets := h.NumNets()
	p.sparse = sparse
	p.twords = (k + 63) / 64
	p.spans = growZeroed(p.spans, nets)
	p.netTouch = growZeroed(p.netTouch, nets*p.twords)
	p.cut = 0
	if sparse {
		p.loadSlots(blocks)
	} else {
		p.loadRows(blocks)
	}
	p.moves = 0

	// Cost aggregates: one pass over the blocks.
	p.feasCount, p.termSum, p.sizeOver, p.termOver = 0, 0, 0, 0
	p.ebM, p.ebNum = 0, 0
	for b := 0; b < k; b++ {
		id := BlockID(b)
		t := p.Terminals(id)
		p.termSum += t
		p.sizeOver += max0(p.blockSize[b] - p.smax)
		p.termOver += max0(t - p.tmax)
		if p.Feasible(id) {
			p.feasCount++
		}
		for r := 0; r < p.nres; r++ {
			p.resOver[r] += max0(p.blockRes[b*p.nres+r] - p.resCaps[r])
		}
	}
	return nil
}

// loadRows builds the dense per-net rows, of width exactly k, and the cut
// from the assignment blocks.
func (p *Partition) loadRows(blocks []BlockID) {
	h, nets := p.h, p.h.NumNets()
	p.stride = p.k
	p.blockPins = growZeroed(p.blockPins, nets*p.stride)
	for e := 0; e < nets; e++ {
		row, tbase := e*p.stride, e*p.twords
		var span int32
		for _, v := range h.NetPins(hypergraph.NetID(e)) {
			b := int(blocks[v])
			if p.blockPins[row+b] == 0 {
				span++
				p.netTouch[tbase+b/64] |= 1 << (uint(b) % 64)
			}
			p.blockPins[row+b]++
		}
		p.spans[e] = span
		if span < 2 {
			continue
		}
		wt := h.NetWeight(hypergraph.NetID(e))
		p.cut += wt
		for w := 0; w < p.twords; w++ {
			for word := p.netTouch[tbase+w]; word != 0; word &= word - 1 {
				p.blockCutInc[w*64+bits.TrailingZeros64(word)] += wt
			}
		}
	}
}

// loadSlots builds the per-net slots and the cut from the assignment
// blocks. A net's slots are found by a scan of the ones it already holds,
// which stays short because a net spans few blocks.
func (p *Partition) loadSlots(blocks []BlockID) {
	h, nets := p.h, p.h.NumNets()
	p.stride = 64 * p.twords
	p.slots = growZeroed(p.slots, h.NumPins())
	for e := 0; e < nets; e++ {
		ne := hypergraph.NetID(e)
		off, tbase := h.PinOffset(ne), e*p.twords
		s := p.slots[off : off+h.NetDegree(ne)]
		span := 0
	pins:
		for _, v := range h.NetPins(ne) {
			b := blocks[v]
			for i := range s[:span] {
				if s[i].block == b {
					s[i].count++
					continue pins
				}
			}
			s[span] = slot{block: b, count: 1}
			span++
			p.netTouch[tbase+int(b)/64] |= 1 << (uint(b) % 64)
		}
		p.spans[e] = int32(span)
		if span < 2 {
			continue
		}
		wt := h.NetWeight(ne)
		p.cut += wt
		for _, sl := range s[:span] {
			p.blockCutInc[sl.block] += wt
		}
	}
}

// New creates a partition with a single block 0 containing every node.
func New(h *hypergraph.Hypergraph, dev device.Device) *Partition {
	p := &Partition{}
	p.Reset(h, dev)
	return p
}

// Reset rebinds p to hypergraph h on device dev and returns it to the
// initial single-block state, reusing every buffer that still fits. It makes
// a pooled Partition behaviourally indistinguishable from New(h, dev).
func (p *Partition) Reset(h *hypergraph.Hypergraph, dev device.Device) {
	p.h, p.dev = h, dev
	p.k = 1
	p.smax, p.tmax = dev.SMax(), dev.TMax()
	n := h.NumNodes()
	if cap(p.assign) < n {
		p.assign = make([]BlockID, n)
	} else {
		p.assign = p.assign[:n]
		for i := range p.assign {
			p.assign[i] = 0
		}
	}
	p.blockSize = append(p.blockSize[:0], h.TotalSize())
	p.blockCutInc = append(p.blockCutInc[:0], 0)
	p.blockPads = append(p.blockPads[:0], h.NumPads())
	p.blockNodes = append(p.blockNodes[:0], n)
	nets := h.NumNets()
	p.sparse = false
	// Keep the previous stride when the existing slabs already hold it, so
	// a pooled partition cycling through same-shaped jobs never restrides.
	if p.stride < 4 || cap(p.blockPins) < nets*p.stride {
		p.stride = 4
	}
	p.twords = (p.stride + 63) / 64
	p.blockPins = growZeroed(p.blockPins, nets*p.stride)
	p.spans = growZeroed(p.spans, nets)
	p.netTouch = growZeroed(p.netTouch, nets*p.twords)
	for e := 0; e < nets; e++ {
		p.blockPins[e*p.stride] = int32(h.NetDegree(hypergraph.NetID(e)))
		p.spans[e] = 1
		p.netTouch[e*p.twords] = 1 // bit 0: block 0 holds every pin
	}
	p.cut = 0
	p.moves = 0
	p.ebM, p.ebNum = 0, 0

	p.bindResources(h, dev)
	p.blockRes = p.blockRes[:0]
	for r, res := range dev.Resources {
		total := h.TotalResource(res.Name)
		p.blockRes = append(p.blockRes, total)
		p.resOver[r] = max0(total - res.Cap)
	}

	p.feasCount = 0
	p.termSum = p.Terminals(0)
	p.sizeOver = max0(p.blockSize[0] - p.smax)
	p.termOver = max0(p.Terminals(0) - p.tmax)
	if p.Feasible(0) {
		p.feasCount = 1
	}
}

// bindResources binds the device's extra resource axes to the netlist's
// demand columns by name (a missing column means every node demands zero)
// and zeroes the per-axis overflow sums.
func (p *Partition) bindResources(h *hypergraph.Hypergraph, dev device.Device) {
	p.nres = len(dev.Resources)
	p.resCaps = p.resCaps[:0]
	p.resOf = p.resOf[:0]
	for _, r := range dev.Resources {
		p.resCaps = append(p.resCaps, r.Cap)
		p.resOf = append(p.resOf, h.ResourceColumn(r.Name))
	}
	p.resOver = growZeroed(p.resOver, p.nres)
}

// Hypergraph returns the underlying circuit.
func (p *Partition) Hypergraph() *hypergraph.Hypergraph { return p.h }

// Device returns the target device.
func (p *Partition) Device() device.Device { return p.dev }

// NumBlocks returns k, the current number of blocks.
func (p *Partition) NumBlocks() int { return p.k }

// AddBlock appends an empty block and returns its ID.
func (p *Partition) AddBlock() BlockID {
	id := BlockID(p.k)
	p.k++
	if p.k > p.stride {
		p.restride()
	}
	p.blockSize = append(p.blockSize, 0)
	p.blockCutInc = append(p.blockCutInc, 0)
	p.blockPads = append(p.blockPads, 0)
	p.blockNodes = append(p.blockNodes, 0)
	for r := 0; r < p.nres; r++ {
		p.blockRes = append(p.blockRes, 0)
	}
	p.feasCount++ // an empty block always meets the constraints
	if p.ebM > 0 {
		p.ebNum += p.h.NumPads() // max(0, |Y0| − m·0)
	}
	return id
}

// Block returns the block node v is assigned to.
func (p *Partition) Block(v hypergraph.NodeID) BlockID { return p.assign[v] }

// Assignment copies the full node→block assignment into dst (reused when
// it has capacity) and returns it. It is the cheap export half of the
// multilevel projection cycle — FromAssignment is the import half.
func (p *Partition) Assignment(dst []BlockID) []BlockID {
	if cap(dst) < len(p.assign) {
		dst = make([]BlockID, len(p.assign))
	}
	dst = dst[:len(p.assign)]
	copy(dst, p.assign)
	return dst
}

// Size returns S_i, the total interior size of block b.
func (p *Partition) Size(b BlockID) int { return p.blockSize[b] }

// NumRes returns the number of extra resource axes (beyond the primary
// size axis) the bound device declares; zero for scalar parts.
func (p *Partition) NumRes() int { return p.nres }

// ResCap returns the capacity of extra resource axis r.
func (p *Partition) ResCap(r int) int { return p.resCaps[r] }

// Res returns block b's demand total on extra resource axis r.
func (p *Partition) Res(b BlockID, r int) int { return p.blockRes[int(b)*p.nres+r] }

// ResDemandOf returns node v's demand on extra resource axis r.
func (p *Partition) ResDemandOf(v hypergraph.NodeID, r int) int {
	if col := p.resOf[r]; col != nil {
		return int(col[v])
	}
	return 0
}

// Terminals returns T_i = cut-incident nets + pads of block b.
func (p *Partition) Terminals(b BlockID) int { return p.blockCutInc[b] + p.blockPads[b] }

// Pads returns T_i^E, the number of primary I/O pads assigned to block b.
func (p *Partition) Pads(b BlockID) int { return p.blockPads[b] }

// Nodes returns the number of nodes (interior + pads) in block b.
func (p *Partition) Nodes(b BlockID) int { return p.blockNodes[b] }

// Cut returns the number of nets spanning two or more blocks, each
// counted with its weight.
func (p *Partition) Cut() int { return p.cut }

// Moves returns the total number of Move operations applied, a cheap proxy
// for algorithm effort used in statistics. It reads 0 right after New,
// Reset or Load.
func (p *Partition) Moves() int64 { return p.moves }

// restride doubles the row width of the packed per-net state so it can
// hold the new block count, copying every net's row and bitset into the
// wider layout (slots keep their slab and widen only the bitset).
// Restrides are O(numNets·stride) but happen only log(k) times per run.
func (p *Partition) restride() {
	nets := len(p.spans)
	oldStride, oldTwords := p.stride, p.twords
	newStride := oldStride * 2
	for newStride < p.k {
		newStride *= 2
	}
	newTwords := (newStride + 63) / 64
	if !p.sparse {
		pins := make([]int32, nets*newStride)
		for e := 0; e < nets; e++ {
			copy(pins[e*newStride:e*newStride+oldStride], p.blockPins[e*oldStride:(e+1)*oldStride])
		}
		p.blockPins = pins
	}
	touch := make([]uint64, nets*newTwords)
	for e := 0; e < nets; e++ {
		copy(touch[e*newTwords:e*newTwords+oldTwords], p.netTouch[e*oldTwords:(e+1)*oldTwords])
	}
	p.netTouch = touch
	p.stride, p.twords = newStride, newTwords
}

// PinCount returns the number of pins net e has in block b. With dense
// rows it is a single indexed load into the packed pin-count matrix; with
// slots, a scan of the net's Span(e) slots.
func (p *Partition) PinCount(e hypergraph.NetID, b BlockID) int {
	if p.sparse {
		return p.slotCount(e, b)
	}
	return int(p.blockPins[int(e)*p.stride+int(b)])
}

// slotCount is PinCount in the slot layout. It stays out of line so the
// dense rows' inlined PinCount is one branch and one load.
//
//go:noinline
func (p *Partition) slotCount(e hypergraph.NetID, b BlockID) int {
	off := p.h.PinOffset(e)
	for _, s := range p.slots[off : off+int(p.spans[e])] {
		if s.block == b {
			return int(s.count)
		}
	}
	return 0
}

// Span returns the number of distinct blocks net e touches.
func (p *Partition) Span(e hypergraph.NetID) int { return int(p.spans[e]) }

// Touches reports whether net e has a pin in block b: one bit of the
// membership bitset, in either layout.
func (p *Partition) Touches(e hypergraph.NetID, b BlockID) bool {
	return p.netTouch[int(e)*p.twords+int(b)/64]&(1<<(uint(b)%64)) != 0
}

// Blocks appends the blocks touched by net e to dst and returns it, in
// ascending block order (a scan of the net's membership bitset).
func (p *Partition) Blocks(e hypergraph.NetID, dst []BlockID) []BlockID {
	base := int(e) * p.twords
	for w := 0; w < p.twords; w++ {
		word := p.netTouch[base+w]
		for word != 0 {
			dst = append(dst, BlockID(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// OtherBlock returns the lowest-numbered block other than b touched by net
// e, or b itself when no such block exists. For span-2 nets this is the
// unique second endpoint, found in O(k/64) words of the membership bitset.
func (p *Partition) OtherBlock(e hypergraph.NetID, b BlockID) BlockID {
	base := int(e) * p.twords
	for w := 0; w < p.twords; w++ {
		word := p.netTouch[base+w]
		if w == int(b)/64 {
			word &^= 1 << (uint(b) % 64)
		}
		if word != 0 {
			return BlockID(w*64 + bits.TrailingZeros64(word))
		}
	}
	return b
}

// NodesIn returns the IDs of all nodes assigned to block b, in ID order.
func (p *Partition) NodesIn(b BlockID) []hypergraph.NodeID {
	out := make([]hypergraph.NodeID, 0, p.blockNodes[b])
	for v, bv := range p.assign {
		if bv == b {
			out = append(out, hypergraph.NodeID(v))
		}
	}
	return out
}

// Move reassigns node v to block `to`, updating all incremental state in
// O(degree(v) · avg span). Moving to the current block is a no-op.
func (p *Partition) Move(v hypergraph.NodeID, to BlockID) {
	p.MoveTrace(v, to, nil)
}

// NetDelta records how one net incident to a moved node transitioned: its
// pin counts in the source and destination blocks before the move, and its
// span before and after. Delta-gain engines consume the trace to update
// only the gain contributions that can actually change (see
// internal/sanchis).
type NetDelta struct {
	Net        hypergraph.NetID
	FromPins   int32 // pins in the source block, before the move
	ToPins     int32 // pins in the destination block, before the move
	SpanBefore int32
	SpanAfter  int32
}

// MoveTrace is Move, additionally appending one NetDelta per incident net
// to buf (in h.NodeNets(v) order) and returning it. Pass a reused buffer to
// avoid allocation; a nil buf records nothing. A same-block no-op move
// returns buf unchanged.
func (p *Partition) MoveTrace(v hypergraph.NodeID, to BlockID, buf []NetDelta) []NetDelta {
	from := p.assign[v]
	if from == to {
		return buf
	}
	p.moves++
	p.assign[v] = to
	size := p.h.SizeOf(v)
	oldFromS, oldFromT := p.blockSize[from], p.Terminals(from)
	oldToS, oldToT := p.blockSize[to], p.Terminals(to)
	oldFromResOK, oldToResOK := true, true
	p.blockSize[from] -= size
	p.blockSize[to] += size
	p.blockNodes[from]--
	p.blockNodes[to]++
	if p.nres > 0 {
		oldFromResOK, oldToResOK = p.resOK(from), p.resOK(to)
		fr, tr := int(from)*p.nres, int(to)*p.nres
		for r := 0; r < p.nres; r++ {
			col := p.resOf[r]
			if col == nil {
				continue
			}
			d := int(col[v])
			if d == 0 {
				continue
			}
			c := p.resCaps[r]
			oldF, oldT := p.blockRes[fr+r], p.blockRes[tr+r]
			p.blockRes[fr+r] = oldF - d
			p.blockRes[tr+r] = oldT + d
			p.resOver[r] += max0(oldF-d-c) - max0(oldF-c) + max0(oldT+d-c) - max0(oldT-c)
		}
	}
	if p.h.KindOf(v) == hypergraph.Pad {
		if p.ebM > 0 {
			pads, m := p.h.NumPads(), p.ebM
			p.ebNum += max0(pads-m*(p.blockPads[from]-1)) - max0(pads-m*p.blockPads[from])
			p.ebNum += max0(pads-m*(p.blockPads[to]+1)) - max0(pads-m*p.blockPads[to])
		}
		p.blockPads[from]--
		p.blockPads[to]++
	}

	sparse := p.sparse
	for _, e := range p.h.NodeNets(v) {
		var cf, ct int32
		if sparse {
			cf, ct = p.slotMove(e, from, to)
		} else {
			row := int(e) * p.stride
			cf = p.blockPins[row+int(from)]
			ct = p.blockPins[row+int(to)]
			p.blockPins[row+int(from)] = cf - 1
			p.blockPins[row+int(to)] = ct + 1
		}
		fromLeft := cf == 1
		toJoined := ct == 0
		spanBefore := p.spans[e]
		spanAfter := spanBefore
		tbase := int(e) * p.twords
		if fromLeft {
			p.netTouch[tbase+int(from)/64] &^= 1 << (uint(from) % 64)
			spanAfter--
		}
		if toJoined {
			p.netTouch[tbase+int(to)/64] |= 1 << (uint(to) % 64)
			spanAfter++
		}
		p.spans[e] = spanAfter
		if buf != nil {
			buf = append(buf, NetDelta{Net: e, FromPins: cf, ToPins: ct, SpanBefore: spanBefore, SpanAfter: spanAfter})
		}

		// The weight is read only where a count changes, which keeps
		// the common no-transition net free of the extra load.
		wasCut, isCut := spanBefore >= 2, spanAfter >= 2
		switch {
		case wasCut && isCut:
			if fromLeft {
				p.blockCutInc[from] -= p.h.NetWeight(e)
			}
			if toJoined {
				p.blockCutInc[to] += p.h.NetWeight(e)
			}
		case wasCut && !isCut:
			// spanBefore == 2, members were {from, to}; from left.
			wt := p.h.NetWeight(e)
			p.blockCutInc[from] -= wt
			p.blockCutInc[to] -= wt
			p.cut -= wt
		case !wasCut && isCut:
			// spanBefore == 1, member was {from}; to joined.
			wt := p.h.NetWeight(e)
			p.blockCutInc[from] += wt
			p.blockCutInc[to] += wt
			p.cut += wt
		}
	}

	p.aggUpdate(from, oldFromS, oldFromT, oldFromResOK)
	p.aggUpdate(to, oldToS, oldToT, oldToResOK)
	return buf
}

// slotMove moves one pin of net e from block from to block to in the slot
// layout and returns the two blocks' pin counts before the move. The
// caller updates the span. Depending on the counts it renames the from
// slot, swap-removes it, appends a to slot, or bumps two counts.
func (p *Partition) slotMove(e hypergraph.NetID, from, to BlockID) (cf, ct int32) {
	off := p.h.PinOffset(e)
	s := p.slots[off : off+int(p.spans[e])]
	fi, ti := -1, -1
	for i := range s {
		switch s[i].block {
		case from:
			fi = i
		case to:
			ti = i
		}
	}
	cf = s[fi].count
	switch {
	case ti >= 0:
		ct = s[ti].count
		s[ti].count++
		if cf == 1 {
			s[fi] = s[len(s)-1]
		} else {
			s[fi].count--
		}
	case cf == 1:
		s[fi].block = to
	default:
		s[fi].count--
		p.slots[off+len(s)] = slot{block: to, count: 1}
	}
	return cf, ct
}

// aggUpdate folds one block's state change into the incremental cost
// aggregates, given its pre-move size, terminals, and (for R>1 devices)
// whether its resource vector fit before the move. Scalar devices always
// pass oldResOK=true and resOK() is a constant-true test, so the R=1
// behavior is unchanged.
func (p *Partition) aggUpdate(b BlockID, oldS, oldT int, oldResOK bool) {
	newS, newT := p.blockSize[b], p.Terminals(b)
	smax, tmax := p.smax, p.tmax
	p.sizeOver += max0(newS-smax) - max0(oldS-smax)
	p.termOver += max0(newT-tmax) - max0(oldT-tmax)
	p.termSum += newT - oldT
	wasFeas := oldResOK && oldS <= smax && oldT <= tmax
	isFeas := p.resOK(b) && newS <= smax && newT <= tmax
	if wasFeas != isFeas {
		if isFeas {
			p.feasCount++
		} else {
			p.feasCount--
		}
	}
}

// Snapshot captures the assignment so it can be restored later.
type Snapshot struct {
	assign []BlockID
	k      int
}

// Snapshot copies the current assignment.
func (p *Partition) Snapshot() Snapshot {
	return p.SnapshotInto(Snapshot{})
}

// SnapshotInto is Snapshot reusing buf's storage when it is large enough.
// The sanchis engine keeps a freelist of retired snapshot buffers and
// refills them through this, so the solution stacks of §3.6 stop costing one
// allocation per stacked solution.
func (p *Partition) SnapshotInto(buf Snapshot) Snapshot {
	n := len(p.assign)
	if cap(buf.assign) < n {
		buf.assign = make([]BlockID, n)
	}
	buf.assign = buf.assign[:n]
	copy(buf.assign, p.assign)
	buf.k = p.k
	return buf
}

// K returns the number of blocks at the time of the snapshot.
func (s Snapshot) K() int { return s.k }

// Assign returns the snapshotted block of node v.
func (s Snapshot) Assign(v hypergraph.NodeID) BlockID { return s.assign[v] }

// Restore reinstates a snapshot by replaying moves for nodes whose block
// differs. The snapshot must come from this partition (same hypergraph) and
// must not reference blocks beyond the current k.
func (p *Partition) Restore(s Snapshot) {
	if len(s.assign) != len(p.assign) {
		panic(fmt.Sprintf("partition: snapshot of %d nodes restored onto %d nodes", len(s.assign), len(p.assign)))
	}
	for v, b := range s.assign {
		if p.assign[v] != b {
			p.Move(hypergraph.NodeID(v), b)
		}
	}
}

// Feasible reports whether block b meets the device constraints (P ⊨ D),
// including every extra resource axis for R>1 devices.
func (p *Partition) Feasible(b BlockID) bool {
	return p.resOK(b) && p.blockSize[b] <= p.smax && p.Terminals(b) <= p.tmax
}

// resOK reports whether block b's extra-resource totals fit the device's
// resource vector, componentwise. Constant true for scalar devices.
func (p *Partition) resOK(b BlockID) bool {
	if p.nres == 0 {
		return true
	}
	row := int(b) * p.nres
	for r := 0; r < p.nres; r++ {
		if p.blockRes[row+r] > p.resCaps[r] {
			return false
		}
	}
	return true
}

// CountFeasible returns the number of blocks meeting the device constraints.
// It is O(1): the count is maintained incrementally by Move and AddBlock.
func (p *Partition) CountFeasible() int { return p.feasCount }

// Class is the paper's three-way solution classification (§2).
type Class uint8

const (
	// FeasibleSolution: every block meets the device constraints.
	FeasibleSolution Class = iota
	// SemiFeasibleSolution: exactly one block violates the constraints
	// (the remainder).
	SemiFeasibleSolution
	// InfeasibleSolution: two or more blocks violate the constraints.
	InfeasibleSolution
)

// String names the class.
func (c Class) String() string {
	switch c {
	case FeasibleSolution:
		return "feasible"
	case SemiFeasibleSolution:
		return "semi-feasible"
	case InfeasibleSolution:
		return "infeasible"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Classify returns the solution class per §2 / Figure 2.
func (p *Partition) Classify() Class {
	switch p.k - p.CountFeasible() {
	case 0:
		return FeasibleSolution
	case 1:
		return SemiFeasibleSolution
	default:
		return InfeasibleSolution
	}
}

// CostParams holds the weighting coefficients of the infeasibility-distance
// cost function (§3.3). The paper's published values are in Defaults.
type CostParams struct {
	LambdaS float64 // λ^S, size-distance weight (0.4)
	LambdaT float64 // λ^T, I/O-distance weight (0.6)
	LambdaR float64 // λ^R, size-deviation penalty weight (0.1)
}

// DefaultCost returns the published coefficients λ^S=0.4, λ^T=0.6, λ^R=0.1.
func DefaultCost() CostParams {
	return CostParams{LambdaS: 0.4, LambdaT: 0.6, LambdaR: 0.1}
}

// BlockDistance returns d_i, the infeasibility distance of block b:
// λ^S·max(0,(S_i−S_MAX)/S_MAX) + λ^T·max(0,(T_i−T_MAX)/T_MAX).
func (p *Partition) BlockDistance(b BlockID, cp CostParams) float64 {
	smax, tmax := p.smax, p.tmax
	var d float64
	if s := p.blockSize[b]; s > smax {
		d += cp.LambdaS * float64(s-smax) / float64(smax)
	}
	if tc := p.Terminals(b); tc > tmax {
		d += cp.LambdaT * float64(tc-tmax) / float64(tmax)
	}
	// §3.3 generalizes componentwise: each extra resource axis contributes
	// a size-style relative-overflow term, weighted like the size axis.
	for r := 0; r < p.nres; r++ {
		if over := p.blockRes[int(b)*p.nres+r] - p.resCaps[r]; over > 0 {
			d += cp.LambdaS * float64(over) / float64(p.resCaps[r])
		}
	}
	return d
}

// Distance returns d_k, the infeasibility distance of the whole solution:
// Σ_i d_i plus the size-deviation penalty λ^R·d_k^R when a remainder block
// and the lower bound M are supplied (§3.3). Pass remainder = NoBlock to
// skip the penalty term.
//
// The block sum is O(1): Σ_i d_i factors as λ^S·Σ max(0,S_i−S_MAX)/S_MAX +
// λ^T·Σ max(0,T_i−T_MAX)/T_MAX, and both integer overflow sums are
// maintained incrementally by Move.
func (p *Partition) Distance(cp CostParams, remainder BlockID, m int) float64 {
	var d float64
	if p.sizeOver > 0 {
		d += cp.LambdaS * float64(p.sizeOver) / float64(p.smax)
	}
	if p.termOver > 0 {
		d += cp.LambdaT * float64(p.termOver) / float64(p.tmax)
	}
	// Componentwise per-resource overflow terms; resOver is maintained
	// incrementally by Move so this stays O(R) per query (R=0 for scalar).
	for r := 0; r < p.nres; r++ {
		if ov := p.resOver[r]; ov > 0 {
			d += cp.LambdaS * float64(ov) / float64(p.resCaps[r])
		}
	}
	if remainder != NoBlock {
		d += cp.LambdaR * p.SizeDeviation(remainder, m)
	}
	return d
}

// SizeDeviation returns d_k^R: with k non-remainder blocks created so far,
// S_AVG = S(R_k)/(M−k+1) is the average block size if the remainder were
// split into the minimal theoretical number of parts; the penalty is
// S_AVG/S_MAX when S_AVG exceeds S_MAX and 0 otherwise (§3.3).
func (p *Partition) SizeDeviation(remainder BlockID, m int) float64 {
	created := p.k - 1 // blocks other than the remainder
	den := m - created + 1
	if den < 1 {
		den = 1
	}
	savg := float64(p.blockSize[remainder]) / float64(den)
	smax := float64(p.smax)
	if savg > smax {
		return savg / smax
	}
	return 0
}

// TerminalSum returns T_SUM = Σ_i T_i, the total pin count of all blocks.
// It is O(1): the sum is maintained incrementally by Move.
func (p *Partition) TerminalSum() int { return p.termSum }

// ExternalBalance returns d_k^E, the external-I/O balancing factor (§3.4):
// blocks holding fewer external pads than the average T^E_AVG = |Y0|/M are
// penalized proportionally.
//
// With avg = |Y0|/m, the factor equals Σ_i max(0, |Y0| − m·T_i^E) / |Y0|,
// whose integer numerator is cached per m and updated incrementally by pad
// moves and AddBlock; repeated calls with the same m are O(1).
func (p *Partition) ExternalBalance(m int) float64 {
	pads := p.h.NumPads()
	if pads == 0 || m < 1 {
		return 0
	}
	if p.ebM != m {
		n := 0
		for b := 0; b < p.k; b++ {
			n += max0(pads - m*p.blockPads[b])
		}
		p.ebM, p.ebNum = m, n
	}
	return float64(p.ebNum) / float64(pads)
}

// Key is the lexicographic solution-comparison key of §3.4:
// (f, d_k, T_SUM, d_k^E) with f maximized and the rest minimized.
type Key struct {
	F    int     // number of feasible blocks (higher is better)
	D    float64 // infeasibility distance (lower is better)
	TSum int     // total block pin count (lower is better)
	DE   float64 // external I/O balancing factor (lower is better)
}

// eps absorbs float noise when comparing the two float components.
const eps = 1e-9

// Better reports whether key a is strictly better than key b.
func (a Key) Better(b Key) bool {
	if a.F != b.F {
		return a.F > b.F
	}
	if a.D < b.D-eps {
		return true
	}
	if a.D > b.D+eps {
		return false
	}
	if a.TSum != b.TSum {
		return a.TSum < b.TSum
	}
	return a.DE < b.DE-eps
}

// String renders the key.
func (k Key) String() string {
	return fmt.Sprintf("(f=%d d=%.4f T=%d dE=%.4f)", k.F, k.D, k.TSum, k.DE)
}

// Key evaluates the solution key for the current state. remainder and m
// feed the d_k^R penalty and the external balance average; pass NoBlock to
// omit the remainder penalty.
func (p *Partition) Key(cp CostParams, remainder BlockID, m int) Key {
	return Key{
		F:    p.CountFeasible(),
		D:    p.Distance(cp, remainder, m),
		TSum: p.TerminalSum(),
		DE:   p.ExternalBalance(m),
	}
}

// Validate recomputes every incremental quantity from scratch and returns an
// error describing the first mismatch. It is O(V + pins) and intended for
// tests and debugging.
func (p *Partition) Validate() error {
	size := make([]int, p.k)
	pads := make([]int, p.k)
	nodes := make([]int, p.k)
	cutInc := make([]int, p.k)
	for v := 0; v < p.h.NumNodes(); v++ {
		b := p.assign[v]
		if b < 0 || int(b) >= p.k {
			return fmt.Errorf("node %d assigned to invalid block %d (k=%d)", v, b, p.k)
		}
		nodes[b]++
		if p.h.KindOf(hypergraph.NodeID(v)) == hypergraph.Pad {
			pads[b]++
		} else {
			size[b] += p.h.SizeOf(hypergraph.NodeID(v))
		}
	}
	cut := 0
	var touched []BlockID
	for e := 0; e < p.h.NumNets(); e++ {
		want := map[BlockID]int{}
		for _, v := range p.h.NetPins(hypergraph.NetID(e)) {
			want[p.assign[v]]++
		}
		if len(want) != p.Span(hypergraph.NetID(e)) {
			return fmt.Errorf("net %d: span %d, recomputed %d", e, p.Span(hypergraph.NetID(e)), len(want))
		}
		for b, c := range want {
			if got := p.PinCount(hypergraph.NetID(e), b); got != c {
				return fmt.Errorf("net %d block %d: pin count %d, recomputed %d", e, b, got, c)
			}
		}
		// The membership bitset must name exactly the touched blocks, in
		// strictly ascending order.
		touched = p.Blocks(hypergraph.NetID(e), touched[:0])
		if len(touched) != len(want) {
			return fmt.Errorf("net %d: blocks %v, recomputed %v", e, touched, want)
		}
		for i, b := range touched {
			if want[b] == 0 || i > 0 && touched[i-1] >= b {
				return fmt.Errorf("net %d: blocks %v, recomputed %v", e, touched, want)
			}
		}
		if len(want) >= 2 {
			wt := p.h.NetWeight(hypergraph.NetID(e))
			cut += wt
			for b := range want {
				cutInc[b] += wt
			}
		}
	}
	for b := 0; b < p.k; b++ {
		if size[b] != p.blockSize[b] {
			return fmt.Errorf("block %d: size %d, recomputed %d", b, p.blockSize[b], size[b])
		}
		if pads[b] != p.blockPads[b] {
			return fmt.Errorf("block %d: pads %d, recomputed %d", b, p.blockPads[b], pads[b])
		}
		if nodes[b] != p.blockNodes[b] {
			return fmt.Errorf("block %d: nodes %d, recomputed %d", b, p.blockNodes[b], nodes[b])
		}
		if cutInc[b] != p.blockCutInc[b] {
			return fmt.Errorf("block %d: cut-incidence %d, recomputed %d", b, p.blockCutInc[b], cutInc[b])
		}
	}
	if cut != p.cut {
		return fmt.Errorf("cut %d, recomputed %d", p.cut, cut)
	}
	feas, tsum, sover, tover := 0, 0, 0, 0
	for b := 0; b < p.k; b++ {
		id := BlockID(b)
		if p.Feasible(id) {
			feas++
		}
		tsum += p.Terminals(id)
		sover += max0(p.blockSize[b] - p.dev.SMax())
		tover += max0(p.Terminals(id) - p.dev.TMax())
	}
	if feas != p.feasCount {
		return fmt.Errorf("feasible count %d, recomputed %d", p.feasCount, feas)
	}
	if tsum != p.termSum {
		return fmt.Errorf("terminal sum %d, recomputed %d", p.termSum, tsum)
	}
	if sover != p.sizeOver {
		return fmt.Errorf("size overflow %d, recomputed %d", p.sizeOver, sover)
	}
	if tover != p.termOver {
		return fmt.Errorf("terminal overflow %d, recomputed %d", p.termOver, tover)
	}
	if p.ebM > 0 {
		n := 0
		for b := 0; b < p.k; b++ {
			n += max0(p.h.NumPads() - p.ebM*p.blockPads[b])
		}
		if n != p.ebNum {
			return fmt.Errorf("external-balance numerator %d (m=%d), recomputed %d", p.ebNum, p.ebM, n)
		}
	}
	for r := 0; r < p.nres; r++ {
		want := make([]int, p.k)
		if col := p.resOf[r]; col != nil {
			for v := 0; v < p.h.NumNodes(); v++ {
				want[p.assign[v]] += int(col[v])
			}
		}
		over := 0
		for b := 0; b < p.k; b++ {
			if want[b] != p.blockRes[b*p.nres+r] {
				return fmt.Errorf("block %d resource %d: total %d, recomputed %d", b, r, p.blockRes[b*p.nres+r], want[b])
			}
			over += max0(want[b] - p.resCaps[r])
		}
		if over != p.resOver[r] {
			return fmt.Errorf("resource %d overflow %d, recomputed %d", r, p.resOver[r], over)
		}
	}
	return nil
}

// String summarizes the partition.
func (p *Partition) String() string {
	return fmt.Sprintf("partition{k=%d cut=%d class=%s}", p.k, p.cut, p.Classify())
}
