// Package driver is the shared front end of the partitioning pipeline: it
// loads circuits from any supported source (built-in benchmarks, netlist
// files, in-memory uploads) and dispatches a partitioning method on them.
//
// Both entry points consume it — the one-shot `cmd/fpart` CLI and the
// long-running `cmd/fpartd` service — so the circuit-loading rules (format
// selection, BLIF technology mapping, parser limits) live in exactly one
// place. Method dispatch goes through internal/engine's method table:
// every partitioner sits behind the same instrumented, cancellable
// engine.Run, and RunOpts only adds the shared Budget token discipline on
// top.
package driver

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

	"fpart/internal/device"
	"fpart/internal/engine"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
	"fpart/internal/netlist"
	"fpart/internal/techmap"
)

// Source describes where a circuit comes from. Exactly one of Builtin,
// Path, or Reader must be set.
type Source struct {
	// Builtin names a synthetic MCNC benchmark from the gen catalog.
	Builtin string
	// Path names a netlist file to open; Format selects its parser.
	Path string
	// Reader is an already-open netlist stream (service uploads); Format
	// selects its parser and Name labels the circuit.
	Reader io.Reader
	// Name overrides the display name (defaults to Builtin or Path).
	Name string
	// Format is the netlist format for Path/Reader sources: "phg", "hgr",
	// or "blif".
	Format string
	// Arch selects the CLB architecture for BLIF technology mapping:
	// "XC2000", "XC3000", or "" for the target device's family.
	Arch string
	// Limits bounds the netlist parsers; the zero value applies
	// netlist.DefaultLimits. Set tighter caps for untrusted input.
	Limits netlist.Limits
}

// Circuit is a loaded, partition-ready circuit.
type Circuit struct {
	Hypergraph *hypergraph.Hypergraph
	// Name labels the circuit in reports.
	Name string
	// Mapped carries the technology-mapping result for BLIF sources (the
	// replication pass needs its functional direction information); nil
	// otherwise.
	Mapped *techmap.Mapped
}

// Load resolves src into a circuit targeting device dev (the device picks
// the default BLIF architecture and sizes built-in benchmarks).
func Load(src Source, dev device.Device) (*Circuit, error) {
	if src.Builtin != "" {
		spec, ok := gen.ByName(src.Builtin)
		if !ok {
			return nil, fmt.Errorf("unknown built-in circuit %q (valid: %v)", src.Builtin, BuiltinNames())
		}
		return &Circuit{Hypergraph: gen.Generate(spec, dev.Family), Name: src.Builtin}, nil
	}
	r := src.Reader
	name := src.Name
	if r == nil {
		if src.Path == "" {
			return nil, fmt.Errorf("no input: set Builtin, Path, or Reader")
		}
		f, err := os.Open(src.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
		if name == "" {
			name = src.Path
		}
	}
	if name == "" {
		name = "<stream>"
	}
	switch src.Format {
	case "phg":
		h, err := netlist.ReadPHGLimits(r, src.Limits)
		if err != nil {
			return nil, err
		}
		return &Circuit{Hypergraph: h, Name: name}, nil
	case "hgr":
		h, err := netlist.ReadHgrLimits(r, src.Limits)
		if err != nil {
			return nil, err
		}
		return &Circuit{Hypergraph: h, Name: name}, nil
	case "blif":
		c, err := netlist.ReadBLIFLimits(r, src.Limits)
		if err != nil {
			return nil, err
		}
		a := techmap.XC3000Arch
		switch {
		case src.Arch == "XC2000" || (src.Arch == "" && dev.Family == device.XC2000):
			a = techmap.XC2000Arch
		case src.Arch == "XC3000" || src.Arch == "":
		default:
			return nil, fmt.Errorf("unknown arch %q", src.Arch)
		}
		m, err := techmap.Map(c, a)
		if err != nil {
			return nil, err
		}
		h, err := m.Hypergraph()
		if err != nil {
			return nil, err
		}
		return &Circuit{Hypergraph: h, Name: name, Mapped: m}, nil
	default:
		return nil, fmt.Errorf("unknown format %q (valid: phg, hgr, blif)", src.Format)
	}
}

// BuiltinNames lists the built-in benchmark circuits.
func BuiltinNames() []string {
	out := make([]string, len(gen.MCNC))
	for i, s := range gen.MCNC {
		out[i] = s.Name
	}
	return out
}

// Result is the outcome of one RunOpts dispatch. Stats is non-nil on
// success and Elapsed is the engine's own measurement (token waits and
// dispatch overhead excluded).
type Result = engine.Result

// ClampParallel normalizes a user-facing worker/parallelism count: values
// below 1 (the "auto" setting of `fpart -parallel 0` and `fpartd
// -workers 0`) select runtime.GOMAXPROCS(0). Both binaries and the service
// share this one clamp so "auto" means the same thing everywhere.
func ClampParallel(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Options tunes a RunOpts dispatch beyond the method name. It is the
// engine layer's option set: Sink receives every method's event stream,
// and Budget is the shared concurrency pool (RunOpts holds one token for
// the run itself; budgeted methods draw extras from the same pool).
type Options = engine.Options

// RunOpts resolves method in the engine's method table and dispatches it on
// circuit h targeting dev under opts. When opts.Budget is set, the call
// blocks until a worker token is free (or ctx dies) and holds it for the
// whole dispatch, so concurrent callers — the fpartd job runners — cannot
// oversubscribe the machine. An unknown method is rejected (quoting the
// valid names) before any token is taken.
func RunOpts(ctx context.Context, method string, h *hypergraph.Hypergraph, dev device.Device, opts Options) (*Result, error) {
	if _, err := engine.Lookup(method); err != nil {
		return nil, err
	}
	if err := opts.Budget.Acquire(ctx); err != nil {
		return nil, err
	}
	defer opts.Budget.Release()
	return engine.Run(ctx, method, h, dev, opts)
}
