package core

import (
	"sync"

	"fpart/internal/partition"
	"fpart/internal/sanchis"
)

// enginePool recycles the Sanchis engine across runs. fpartd calls Run once
// per job in a long-lived process, so this alone removes the largest per-job
// allocation (buckets, level buffers, journal, stacks).
var enginePool sync.Pool

// getEngine returns an engine bound to p under cfg, reusing pooled scratch
// when available.
func getEngine(p *partition.Partition, cfg sanchis.Config) *sanchis.Engine {
	if e, ok := enginePool.Get().(*sanchis.Engine); ok {
		e.Reset(p, cfg)
		return e
	}
	return sanchis.New(p, cfg)
}

// putEngine retires an engine to the pool.
func putEngine(e *sanchis.Engine) {
	e.Unbind()
	enginePool.Put(e)
}
