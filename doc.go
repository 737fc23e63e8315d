// Package fpart is a from-scratch Go reproduction of "Iterative Improvement
// Based Multi-Way Netlist Partitioning for FPGAs" (H. Krupnova, G. Saucier,
// DATE 1999).
//
// The paper's algorithm — called FPART — partitions a circuit hypergraph
// into the minimum number of blocks that each fit one FPGA device
// (S_MAX logic cells, T_MAX terminals), by recursive bipartitioning guided
// by multi-way Fiduccia–Mattheyses / Sanchis iterative improvement with an
// infeasibility-distance cost function, feasible move regions, dual
// solution stacks, and directional gain buckets.
//
// Layout:
//
//	internal/hypergraph   circuit hypergraph substrate
//	internal/device       Xilinx XC2000/XC3000 device models, lower bound M
//	internal/partition    incremental partition state, feasibility, cost keys
//	internal/gain         FM gain buckets (LIFO, per move direction)
//	internal/seed         constructive initial bipartitions (§3.2)
//	internal/sanchis      the guided multi-way improvement engine (§3.3–§3.7)
//	internal/core         FPART itself — Algorithm 1 (§3.1), cancellation,
//	                      strategy portfolio; the one peel driver, and the
//	                      k-way.x recursive-FM baseline [9] as KWayX
//	internal/obs          observability: structured events, sinks, effort
//	                      counters, per-phase timings
//	internal/flow         Dinic max-flow + FBB-MW-style baseline [16]
//	internal/netlist      PHG / hMETIS .hgr / BLIF readers and writers
//	internal/techmap      gate-to-CLB technology mapping (XC2000 vs XC3000)
//	internal/gen          synthetic MCNC Partitioning93 benchmark generator
//	internal/bench        Tables 1–6 harness with the paper's published data
//	cmd/fpart             CLI partitioner (-stats, -timeout, -trace-format)
//	cmd/benchtables       regenerates the paper's tables (+ instrumentation)
//	cmd/gencircuit        emits the synthetic benchmark suite
//	examples/...          runnable walkthroughs
//
// The benchmarks in bench_test.go regenerate each table of the paper; see
// DESIGN.md for the experiment index, EXPERIMENTS.md for measured results
// against the published numbers, and ARCHITECTURE.md for the package
// layering, the Algorithm 1 data flow, and the observability layer.
package fpart
