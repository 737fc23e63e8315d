package driver

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpart/internal/device"
	"fpart/internal/engine"
	"fpart/internal/netlist"
	"fpart/internal/obs"
)

const tinyPHG = `phg
node a 2
node b 2
node c 2
node d 2
pad p
pad q
net n1 0 1 4
net n2 1 2
net n3 2 3 5
net n4 0 3
`

func TestLoadBuiltin(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	c, err := Load(Source{Builtin: "s9234"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "s9234" || c.Hypergraph.NumInterior() == 0 {
		t.Fatalf("bad builtin load: %+v", c)
	}
	if _, err := Load(Source{Builtin: "nope"}, dev); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

func TestLoadReaderFormats(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	c, err := Load(Source{Reader: strings.NewReader(tinyPHG), Format: "phg", Name: "tiny"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "tiny" || c.Hypergraph.NumNodes() != 6 {
		t.Fatalf("bad phg load: %v", c.Hypergraph)
	}

	blif := ".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end\n"
	c, err = Load(Source{Reader: strings.NewReader(blif), Format: "blif"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mapped == nil {
		t.Fatal("BLIF load should carry the techmap result")
	}

	if _, err := Load(Source{Reader: strings.NewReader("x"), Format: "tsv"}, dev); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := Load(Source{}, dev); err == nil {
		t.Fatal("empty source accepted")
	}
}

func TestLoadAppliesLimits(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	_, err := Load(Source{
		Reader: strings.NewReader(tinyPHG),
		Format: "phg",
		Limits: netlist.Limits{MaxNodes: 2},
	}, dev)
	var le *netlist.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
}

func TestRunMethods(t *testing.T) {
	dev, _ := device.ByName("XC3020")
	c, err := Load(Source{Reader: strings.NewReader(tinyPHG), Format: "phg"}, dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range engine.Names() {
		var coll obs.Collector
		r, err := RunOpts(context.Background(), method, c.Hypergraph, dev, Options{Sink: &coll})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if r.K < 1 || r.M < 1 || r.Partition == nil {
			t.Fatalf("%s: degenerate result %+v", method, r)
		}
		// Every registered engine is instrumented: Stats present, events
		// flowing.
		if r.Stats == nil {
			t.Fatalf("%s: no stats", method)
		}
		if coll.Count(obs.RunStart) == 0 {
			t.Fatalf("%s: no events reached the sink", method)
		}
	}
	if _, err := RunOpts(context.Background(), "nope", c.Hypergraph, dev, Options{}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestStartProfilesPanicSafe asserts the teardown contract: a panic in the
// profiled region must still leave complete, closed profile files behind.
func TestStartProfilesPanicSafe(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	var notes []string
	func() {
		stop, err := StartProfiles(cpu, mem, func(f string, a ...any) {
			notes = append(notes, f)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { recover() }() // the panic under test
		defer stop()
		panic("mid-run failure")
	}()

	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing after panic: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty after panic", p)
		}
	}
	if len(notes) != 2 {
		t.Fatalf("want 2 notifications, got %v", notes)
	}
}

func TestStartProfilesIdempotentStop(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartProfiles(filepath.Join(dir, "c"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // second call must be a no-op, not a double-close
}
