package service

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// MaxBatchDevices bounds one batch submission's fan-out.
const MaxBatchDevices = 64

// GroupItem is one device target's outcome inside a batch group: either
// an admitted job or the admission error that kept it out.
type GroupItem struct {
	Device string
	Job    *Job  // nil when admission failed
	Err    error // nil when admitted
}

// Group is one batch submission: the same circuit fanned out across many
// device targets as individually tracked jobs. The Table 6 grid — one
// circuit, every device — is a single group.
type Group struct {
	id      string
	created time.Time
	items   []GroupItem
}

// ID returns the group's identifier.
func (g *Group) ID() string { return g.id }

// Items returns the group's per-device entries in submission order.
func (g *Group) Items() []GroupItem { return g.items }

// SubmitBatch fans base out across devices as one job group. Each target
// is admitted independently (cache hits, coalescing, and the disk store
// all apply per job); per-device admission errors are recorded in the group
// rather than aborting it. Only if no device at all was admitted does
// SubmitBatch fail, with the first error.
func (s *Service) SubmitBatch(base Request, devices []string) (*Group, error) {
	if len(devices) == 0 {
		return nil, errors.New("batch: no target devices")
	}
	if len(devices) > MaxBatchDevices {
		return nil, fmt.Errorf("batch: %d target devices (max %d)", len(devices), MaxBatchDevices)
	}
	g := &Group{
		id:      "grp-" + strconv.FormatInt(s.nextGroup.Add(1), 10),
		created: time.Now(),
	}
	admitted := 0
	var firstErr error
	for _, dev := range devices {
		req := base
		req.Device = dev
		job, err := s.Submit(req)
		if err == nil {
			admitted++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("device %s: %w", dev, err)
		}
		g.items = append(g.items, GroupItem{Device: dev, Job: job, Err: err})
	}
	if admitted == 0 {
		return nil, firstErr
	}
	s.mu.Lock()
	s.rememberGroupLocked(g)
	s.mu.Unlock()
	s.m.batchGroups.Add(1)
	return g, nil
}

// rememberGroupLocked records the group and trims retention (oldest
// fully terminal groups first). Callers hold mu.
func (s *Service) rememberGroupLocked(g *Group) {
	s.groups[g.id] = g
	s.grpOrder = append(s.grpOrder, g.id)
	for len(s.grpOrder) > groupRetention {
		evicted := false
		for i, id := range s.grpOrder {
			if grp := s.groups[id]; grp != nil && grp.terminalLocked() {
				delete(s.groups, id)
				s.grpOrder = append(s.grpOrder[:i], s.grpOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every group still live: keep them all queryable
		}
	}
}

// terminalLocked reports whether every admitted job of the group reached
// a terminal state. Callers hold mu.
func (g *Group) terminalLocked() bool {
	for _, it := range g.items {
		if it.Job != nil && !it.Job.terminal() {
			return false
		}
	}
	return true
}

// Group looks a batch group up by ID.
func (s *Service) Group(id string) (*Group, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[id]
	return g, ok
}

// GroupSnapshot is an immutable copy of a group's state.
type GroupSnapshot struct {
	ID      string
	Created time.Time
	// Jobs holds one snapshot per admitted job, in submission order.
	Jobs []Snapshot
	// Rejected maps device targets to their admission error strings.
	Rejected map[string]string
	// Complete reports that every admitted job is terminal.
	Complete bool
}

// SnapshotGroup captures the group's current state.
func (s *Service) SnapshotGroup(g *Group) GroupSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := GroupSnapshot{ID: g.id, Created: g.created, Complete: true}
	for _, it := range g.items {
		if it.Job == nil {
			if out.Rejected == nil {
				out.Rejected = make(map[string]string)
			}
			out.Rejected[it.Device] = it.Err.Error()
			continue
		}
		snap := it.Job.snapshotLocked()
		if !it.Job.terminal() {
			out.Complete = false
		}
		out.Jobs = append(out.Jobs, snap)
	}
	return out
}
