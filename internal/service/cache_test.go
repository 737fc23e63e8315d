package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fpart/internal/device"
	"fpart/internal/driver"
	"fpart/internal/hypergraph"
)

// TestFingerprintRenameStability pins the content-addressing contract
// one axis at a time: renaming only the nets, or only the nodes, of a
// netlist must not move its fingerprint — the two uploads are the same
// computation — while any structural edit must.
func TestFingerprintRenameStability(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	load := func(body string) *hypergraph.Hypergraph {
		c, err := driver.Load(driver.Source{Reader: strings.NewReader(body), Format: "phg"}, dev)
		if err != nil {
			t.Fatal(err)
		}
		return c.Hypergraph
	}
	base := Fingerprint(load(tinyPHG), dev, "fpart", "")

	netsRenamed := strings.NewReplacer("net n1", "net alpha", "net n2", "net beta",
		"net n3", "net gamma", "net n4", "net delta").Replace(tinyPHG)
	if Fingerprint(load(netsRenamed), dev, "fpart", "") != base {
		t.Fatal("net names must not affect the fingerprint")
	}

	nodesRenamed := strings.NewReplacer("node a", "node u0", "node b", "node u1",
		"node c", "node u2", "node d", "node u3", "pad p", "pad io0", "pad q", "pad io1").Replace(tinyPHG)
	if Fingerprint(load(nodesRenamed), dev, "fpart", "") != base {
		t.Fatal("node and pad names must not affect the fingerprint")
	}

	// A one-pin structural edit moves it.
	edited := strings.Replace(tinyPHG, "net n2 1 2", "net n2 1 3", 1)
	if Fingerprint(load(edited), dev, "fpart", "") == base {
		t.Fatal("pin edits must move the fingerprint")
	}
}

// TestCacheConcurrentGetAdd hammers the LRU with mixed get/add traffic
// from many goroutines (under the same external locking discipline the
// service uses) and then checks the structure is still coherent and
// still evicts in recency order. The -race leg of verify.sh runs this.
func TestCacheConcurrentGetAdd(t *testing.T) {
	const capacity = 16
	c := newResultCache(capacity)
	var mu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%d", (w*31+i*7)%48)
				mu.Lock()
				if (w+i)%3 == 0 {
					c.add(key, cacheEntry{})
				} else {
					c.get(key)
				}
				if c.len() > capacity {
					mu.Unlock()
					panic("cache exceeded its capacity")
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Map and list agree entry-for-entry after the storm.
	if c.ll.Len() != len(c.m) {
		t.Fatalf("list has %d entries, map %d", c.ll.Len(), len(c.m))
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*cacheItem)
		if c.m[it.key] != el {
			t.Fatalf("map entry for %q does not point at its list element", it.key)
		}
	}

	// Eviction order is still strict recency: refill with known keys,
	// touch the oldest, and overflow — the touched key survives, the
	// now-least-recent one goes.
	for i := 0; i < capacity; i++ {
		c.add(fmt.Sprintf("x%d", i), cacheEntry{})
	}
	c.get("x0")
	c.add("overflow", cacheEntry{})
	if _, ok := c.get("x0"); !ok {
		t.Fatal("recently touched x0 must survive the overflow")
	}
	if _, ok := c.get("x1"); ok {
		t.Fatal("least-recently-used x1 must have been evicted")
	}
}

// TestServiceCacheConcurrentCorrectness drives the real Submit path from
// many goroutines over a key set larger than the cache, so entries churn
// while lookups race admissions. Every job must finish Done and every
// fingerprint must always yield the same partitioning outcome no matter
// whether it came from the engine, the cache, or a coalesced ride.
func TestServiceCacheConcurrentCorrectness(t *testing.T) {
	s := New(Config{Workers: 4, CacheEntries: 4, QueueDepth: 256})
	defer shutdownClean(t, s)

	type outcome struct {
		k, cut int
	}
	var mu sync.Mutex
	seen := make(map[float64]outcome) // fill → first observed result

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				// 8 distinct fills → 8 fingerprints over a 4-entry cache.
				fill := 0.55 + float64((w+i)%8)/40
				req := phgRequest(tinyPHG)
				req.Fill = fill
				j, err := s.Submit(req)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				waitTerminal(t, j)
				snap := s.Snapshot(j)
				if snap.State != StateDone {
					t.Errorf("job ended %s (%v)", snap.State, snap.Err)
					return
				}
				got := outcome{k: snap.Result.K, cut: snap.Report.Cut}
				mu.Lock()
				if prev, ok := seen[fill]; !ok {
					seen[fill] = got
				} else if prev != got {
					t.Errorf("fill %v: result diverged %v vs %v", fill, prev, got)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if got := s.cache.len(); got > 4 {
		t.Fatalf("cache len %d exceeds capacity 4", got)
	}
}

// TestFingerprintLiteralPins pins the exact cache keys of three queries.
// The other fingerprint tests compare keys with each other; this one
// catches any change to the hashed bytes themselves, which would
// silently orphan every entry of an fpartd disk store.
func TestFingerprintLiteralPins(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	ffDev, err := device.ParseSpec("CLB:500,FF:8/200")
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := driver.Load(driver.Source{Builtin: "c3540"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	blif, err := driver.Load(driver.Source{Reader: strings.NewReader(pipelineBLIF(16, 12)), Format: "blif"}, ffDev)
	if err != nil {
		t.Fatal(err)
	}
	if blif.Hypergraph.TotalResource("FF") != 12 {
		t.Fatalf("BLIF FF total %d, want 12", blif.Hypergraph.TotalResource("FF"))
	}
	for _, c := range []struct {
		name string
		got  string
		want string
	}{
		{"builtin", Fingerprint(builtin.Hypergraph, dev, "fpart", ""),
			"747069e2418cf9e6759b375cfc0ca89aaef29b94760f07e914b3f80dd0017f16"},
		{"blif-ff", Fingerprint(blif.Hypergraph, ffDev, "fpart", ""),
			"9ef68692ee03358347d9c5452f9853288a25a127b74425388d5b4da18b429197"},
		{"blif-ff-board", Fingerprint(blif.Hypergraph, ffDev, "fpart", "mesh:2x2:wires=8"),
			"7abed3ab8bab6989ddf42c1841d75626bc3dff9716d68cd69eb6c6fc89c3e95c"},
	} {
		if c.got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, c.got, c.want)
		}
	}
}
