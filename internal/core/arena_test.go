package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/obs"
)

// TestRunIndependentOfEngineHistory runs Table 6 instances back to back so
// the second reuses the first one's pooled engine, and checks the second
// run's effort counters and result against a run on a fresh engine. A
// pooled engine keeps larger scratch capacities than a fresh one and
// reslices where a fresh one allocates; any state that survives the
// reslice shows up here as a changed trajectory.
func TestRunIndependentOfEngineHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six Table 6 instances")
	}
	// One P and no GC: the second run must find the first run's engine in
	// the pool, not a fresh one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	type inst struct {
		circuit string
		dev     device.Device
	}
	pairs := []struct{ before, after inst }{
		{inst{"c5315", device.XC3042}, inst{"c5315", device.XC3090}},
		{inst{"c5315", device.XC3090}, inst{"c5315", device.XC2064}},
		{inst{"c5315", device.XC2064}, inst{"c6288", device.XC3020}},
	}
	run := func(in inst) *Result {
		t.Helper()
		spec, ok := gen.ByName(in.circuit)
		if !ok {
			t.Fatalf("unknown circuit %s", in.circuit)
		}
		r, err := Partition(gen.Generate(spec, in.dev.Family), in.dev, Default())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	drain := func() {
		for enginePool.Get() != nil {
		}
		for arenaPool.Get() != nil {
		}
	}
	for _, pr := range pairs {
		drain()
		fresh := run(pr.after)
		drain()
		run(pr.before)
		pooled := run(pr.after)
		name := pr.before.circuit + "/" + pr.before.dev.Name + "→" + pr.after.circuit + "/" + pr.after.dev.Name
		pooled.Stats.PhaseTime, fresh.Stats.PhaseTime = [obs.NumPhases]time.Duration{}, [obs.NumPhases]time.Duration{}
		if pooled.Stats != fresh.Stats {
			t.Errorf("%s: pooled stats %+v, fresh %+v", name, pooled.Stats, fresh.Stats)
		}
		if pooled.K != fresh.K || pooled.Partition.Cut() != fresh.Partition.Cut() {
			t.Errorf("%s: pooled K=%d cut=%d, fresh K=%d cut=%d",
				name, pooled.K, pooled.Partition.Cut(), fresh.K, fresh.Partition.Cut())
		}
	}
}
