package seed

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/partition"
)

// carveAll peels p with seed.Best until the remainder has fewer than two
// nodes or no split is found, and returns the final assignment. Each step
// draws grow, BFS and sweep scratch from the package pools.
func carveAll(p *partition.Partition, dev device.Device) []partition.BlockID {
	cp := partition.DefaultCost()
	for len(p.NodesIn(0)) >= 2 {
		if _, ok := Best(p, 0, dev, cp, 1); !ok {
			break
		}
	}
	return p.Assignment(nil)
}

// TestBestConcurrentMatchesSequential runs seed.Best peels from several
// goroutines at once on independent partitions of graphs of different
// sizes, so pooled scratch moves between goroutines and graphs, and
// compares every final assignment with a sequential run.
func TestBestConcurrentMatchesSequential(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	sizes := []int{150, 400, 90, 260, 400, 150}
	want := make([][]partition.BlockID, len(sizes))
	for i, n := range sizes {
		want[i] = carveAll(partition.New(gen.Synthetic(n, 12, int64(i+1), true), dev), dev)
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(sizes))
	for round := 0; round < rounds; round++ {
		for i, n := range sizes {
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				got := carveAll(partition.New(gen.Synthetic(n, 12, int64(i+1), true), dev), dev)
				if !slices.Equal(got, want[i]) {
					errs <- fmt.Errorf("graph %d (%d cells): concurrent peel differs from the sequential one", i, n)
				}
			}(i, n)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
