package service

import (
	"encoding/json"
	"fmt"
	"time"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/partition"
)

// storedResult is the durable serialization of one completed run: the
// payload the disk store files under a fingerprint key, and the envelope
// a work-stealing thief pushes back to its victim. It carries the block
// assignment rather than the partition object — the loader still has the
// hypergraph (content addressing guarantees an identical structure), so
// the partition and its quality report are rebuilt exactly, and the
// payload stays a few bytes per cell.
type storedResult struct {
	Circuit string `json:"circuit,omitempty"`
	Device  string `json:"device"`
	// Fill is the device's resolved filling ratio (request overrides
	// included), re-applied at decode so the rebuilt partition judges
	// feasibility exactly as the original run did.
	Fill     float64 `json:"fill"`
	Method   string  `json:"method"`
	K        int     `json:"k"`
	M        int     `json:"m"`
	Feasible bool    `json:"feasible"`
	// Assignment maps node index to block.
	Assignment []int32     `json:"assignment"`
	ElapsedNS  int64       `json:"elapsed_ns"`
	Stats      *obs.Stats  `json:"stats,omitempty"`
	Events     []obs.Event `json:"events,omitempty"`
}

// encodeStored serializes a finished run for the disk store or a steal
// result push. The device (resolved fill included) comes from the
// partition itself.
func encodeStored(circuit, method string, res *driver.Result, events []obs.Event) ([]byte, error) {
	h := res.Partition.Hypergraph()
	dev := res.Partition.Device()
	assign := make([]int32, h.NumNodes())
	for i := range assign {
		assign[i] = int32(res.Partition.Block(hypergraph.NodeID(i)))
	}
	return json.Marshal(storedResult{
		Circuit:    circuit,
		Device:     dev.Name,
		Fill:       dev.Fill,
		Method:     method,
		K:          res.K,
		M:          res.M,
		Feasible:   res.Feasible,
		Assignment: assign,
		ElapsedNS:  int64(res.Elapsed),
		Stats:      res.Stats,
		Events:     events,
	})
}

// decodeStored rebuilds a driver.Result from a stored payload against the
// hypergraph and device it was computed for. Both come from the job, so a
// rebuilt partition keeps every resource cap of the job's device; the
// envelope's device name and fill must agree with it. The assignment must
// cover the hypergraph, and its block count (highest id + 1; absorption
// can leave lower ids empty) must not exceed device.BlockCap of the job's
// lower bound, where every peeling engine stops. Both are checked before
// anything is sized by the block count — a payload that does not fit the
// circuit (a hash collision would be the only honest cause) is an error,
// never a silently wrong partition.
//
// The envelope's k, m and feasible are claims about the partition, so they
// are checked against the rebuilt one: k must be its non-empty block count,
// m the job's lower bound, and a feasible claim needs a feasible partition.
// feasible=false is accepted on any partition, since the board gate can
// demote a partition that fits its devices. The events are replayed to the
// job's subscribers, so their run-end claims are checked too (checkRunEnds).
func decodeStored(payload []byte, h *hypergraph.Hypergraph, dev device.Device) (*driver.Result, *storedResult, error) {
	var sr storedResult
	if err := json.Unmarshal(payload, &sr); err != nil {
		return nil, nil, fmt.Errorf("stored result: %w", err)
	}
	if sr.Device != dev.Name || sr.Fill != dev.Fill {
		return nil, nil, fmt.Errorf("stored result targets %s at fill %v, want %s at fill %v", sr.Device, sr.Fill, dev.Name, dev.Fill)
	}
	if len(sr.Assignment) != h.NumNodes() {
		return nil, nil, fmt.Errorf("stored assignment covers %d of %d nodes", len(sr.Assignment), h.NumNodes())
	}
	m := device.LowerBound(h, dev)
	limit := device.BlockCap(m)
	blocks := make([]partition.BlockID, len(sr.Assignment))
	nb := 1
	for i, b := range sr.Assignment {
		if b < 0 || int(b) >= limit {
			return nil, nil, fmt.Errorf("stored assignment puts node %d in block %d, past the %d-block cap", i, b, limit)
		}
		blocks[i] = partition.BlockID(b)
		nb = max(nb, int(b)+1)
	}
	p, err := partition.FromAssignment(h, dev, blocks, nb)
	if err != nil {
		return nil, nil, fmt.Errorf("stored result: %w", err)
	}
	k := 0
	for b := 0; b < nb; b++ {
		if p.Nodes(partition.BlockID(b)) > 0 {
			k++
		}
	}
	if sr.K != k || sr.M != m {
		return nil, nil, fmt.Errorf("stored result claims k=%d m=%d, its assignment gives k=%d m=%d", sr.K, sr.M, k, m)
	}
	if sr.Feasible && p.Classify() != partition.FeasibleSolution {
		return nil, nil, fmt.Errorf("stored result claims feasible, its assignment is %s", p.Classify())
	}
	if err := checkRunEnds(sr.Events, k, m); err != nil {
		return nil, nil, err
	}
	return &driver.Result{
		Partition: p,
		K:         k,
		M:         m,
		Feasible:  sr.Feasible,
		Stats:     sr.Stats,
		Elapsed:   time.Duration(sr.ElapsedNS),
	}, &sr, nil
}

// checkRunEnds holds a stored event stream to the rebuilt partition. Every
// run-end must carry the job's lower bound m; at least one must carry the
// rebuilt block count k (portfolio members and mlfpart's coarse peel end
// runs of their own); and none may call fewer than k blocks feasible. An
// empty stream makes no claim.
func checkRunEnds(events []obs.Event, k, m int) error {
	if len(events) == 0 {
		return nil
	}
	sawK := false
	for _, e := range events {
		if e.Type != obs.RunEnd {
			continue
		}
		if e.M != m {
			return fmt.Errorf("stored events end a run at m=%d, the job's lower bound is %d", e.M, m)
		}
		if e.Feasible && e.K < k {
			return fmt.Errorf("stored events call k=%d feasible, the assignment needs k=%d", e.K, k)
		}
		sawK = sawK || e.K == k
	}
	if !sawK {
		return fmt.Errorf("stored events end no run at the assignment's k=%d", k)
	}
	return nil
}
