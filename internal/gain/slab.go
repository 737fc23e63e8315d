package gain

// Slab backs a family of identically-shaped Buckets — the k·(k−1)
// directional buckets of a multi-way FM pass — with one contiguous
// allocation per array kind instead of five small allocations per bucket.
// Adjacent directions land on adjacent cache lines, and a pooled engine
// rebinding to the same graph shape reuses the whole family without
// touching the allocator. Individual buckets behave exactly like ones made
// with NewBucket; they share nothing but backing storage.
type Slab struct {
	dirs    int
	buckets []Bucket
}

// NewSlab creates dirs buckets for cells 0..numCells-1 and gains in
// [-maxGain, maxGain], all carved out of shared slabs.
func NewSlab(dirs, numCells, maxGain int) *Slab {
	if maxGain < 0 {
		panic("gain: negative maxGain")
	}
	if dirs < 0 {
		panic("gain: negative dir count")
	}
	hn := 2*maxGain + 1
	heads := make([]int32, dirs*hn)
	next := make([]int32, dirs*numCells)
	prev := make([]int32, dirs*numCells)
	gains := make([]int32, dirs*numCells)
	in := make([]bool, dirs*numCells)
	for i := range heads {
		heads[i] = none
	}
	s := &Slab{dirs: dirs, buckets: make([]Bucket, dirs)}
	for d := 0; d < dirs; d++ {
		c0, c1 := d*numCells, (d+1)*numCells
		s.buckets[d] = Bucket{
			offset:  maxGain,
			heads:   heads[d*hn : (d+1)*hn : (d+1)*hn],
			next:    next[c0:c1:c1],
			prev:    prev[c0:c1:c1],
			gain:    gains[c0:c1:c1],
			in:      in[c0:c1:c1],
			maxIdx:  -1,
			maxGain: maxGain,
		}
	}
	return s
}

// Bucket returns direction d's bucket. The pointer stays valid for the
// slab's lifetime.
func (s *Slab) Bucket(d int) *Bucket { return &s.buckets[d] }

// Dirs returns the number of buckets in the slab.
func (s *Slab) Dirs() int { return s.dirs }
