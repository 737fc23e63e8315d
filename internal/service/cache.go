package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/hypergraph"
	"fpart/internal/obs"
	"fpart/internal/quality"
)

// Fingerprint computes the content-addressed cache key of one query: a
// SHA-256 over the canonicalized hypergraph structure (node kinds, sizes,
// per-resource demand columns such as BLIF's FF; net pin lists in declaration
// order), the resolved device parameters including its resource caps, the
// method, and the board spec the result is gated on ("" for none). Node
// and net *names* are deliberately excluded — two uploads of the same
// structure under different signal names are the same computation.
// Resource *names* are included: a DSP demand and a BRAM demand of the
// same magnitude bind against different device caps.
func Fingerprint(h *hypergraph.Hypergraph, dev device.Device, method, boardSpec string) string {
	hash := sha256.New()
	// dev's %v is its String(), which renders name, S_MAX, T_MAX, and δ but
	// not the resource vector — hash the caps explicitly.
	fmt.Fprintf(hash, "method=%s|device=%v|board=%s|", method, dev, boardSpec)
	for _, r := range dev.Resources {
		fmt.Fprintf(hash, "cap:%s=%d|", r.Name, r.Cap)
	}

	buf := make([]byte, 0, 64)
	flush := func() {
		hash.Write(buf)
		buf = buf[:0]
	}
	putInt := func(v int) {
		buf = binary.AppendUvarint(buf, uint64(v))
		if len(buf) >= 48 {
			flush()
		}
	}
	putInt(h.NumNodes())
	putInt(h.NumNets())
	for i := 0; i < h.NumNodes(); i++ {
		putInt(int(h.KindOf(hypergraph.NodeID(i))))
		putInt(h.SizeOf(hypergraph.NodeID(i)))
	}
	for e := 0; e < h.NumNets(); e++ {
		pins := h.NetPins(hypergraph.NetID(e))
		putInt(len(pins))
		for _, p := range pins {
			putInt(int(p))
		}
	}
	flush()
	for _, name := range h.ResourceNames() {
		fmt.Fprintf(hash, "res=%s|", name)
		for _, d := range h.ResourceColumn(name) {
			putInt(int(d))
		}
		flush()
	}
	return hex.EncodeToString(hash.Sum(nil))
}

// cacheEntry is one memoized outcome: the partitioning result, its quality
// report, and the event stream of the run that produced it (replayed to
// subscribers of cached jobs).
type cacheEntry struct {
	res    *driver.Result
	report quality.Report
	events []obs.Event
}

// resultCache is a plain LRU over cache entries. It is not self-locking;
// the service mutex guards it.
type resultCache struct {
	max int
	ll  *list.List // front = most recently used; values are *cacheItem
	m   map[string]*list.Element
}

type cacheItem struct {
	key string
	ent cacheEntry
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *resultCache) get(key string) (cacheEntry, bool) {
	el, ok := c.m[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).ent, true
}

func (c *resultCache) add(key string, ent cacheEntry) {
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheItem).ent = ent
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheItem{key: key, ent: ent})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheItem).key)
	}
}

func (c *resultCache) len() int { return c.ll.Len() }
