package bench

// Sensitivity table: the study behind the paper's remark that its §4
// constants were "determined on the experimental basis", next to the §3
// ablations and the §5 extensions. Every row is one FPART configuration,
// summed over the 34 instances of Tables 2–5: one circuit reads the same
// device count at almost every setting, a sum over the whole grid does not.

import (
	"fmt"
	"io"

	"fpart/internal/core"
	"fpart/internal/device"
	"fpart/internal/gen"
	"fpart/internal/hypergraph"
)

// point is one row of the sensitivity table: the published configuration
// with one change.
type point struct {
	series, value string
	cfg           core.Config
	// fill, when non-zero, replaces every device's filling ratio δ.
	fill float64
}

// published reports whether p is the paper's configuration.
func (p point) published() bool { return p.fill == 0 && p.cfg == core.Default() }

// sensitivityPoints lists the table's rows: one series per §4 constant,
// each through its published value, then the ablations and extensions.
func sensitivityPoints() []point {
	var pts []point
	add := func(series, value string, set func(*core.Config)) {
		cfg := core.Default()
		set(&cfg)
		pts = append(pts, point{series: series, value: value, cfg: cfg})
	}
	sweep := func(series string, values []float64, set func(*core.Config, float64)) {
		for _, v := range values {
			add(series, fmt.Sprint(v), func(c *core.Config) { set(c, v) })
		}
	}
	// λ^S + λ^T = 1, as in the paper.
	sweep("lambdaT", []float64{0, 0.2, 0.4, 0.6, 0.8, 1}, func(c *core.Config, v float64) {
		c.Engine.Cost.LambdaT, c.Engine.Cost.LambdaS = v, 1-v
	})
	sweep("lambdaR", []float64{0, 0.05, 0.1, 0.2, 0.4}, func(c *core.Config, v float64) { c.Engine.Cost.LambdaR = v })
	sweep("window.lower2", []float64{0.5, 0.8, 0.9, 0.95, 1}, func(c *core.Config, v float64) { c.Engine.Windows.Lower2 = v })
	sweep("window.lowerMulti", []float64{0, 0.15, 0.3, 0.6, 0.9}, func(c *core.Config, v float64) { c.Engine.Windows.LowerMulti = v })
	sweep("window.upper", []float64{1, 1.05, 1.15, 1.3}, func(c *core.Config, v float64) { c.Engine.Windows.Upper = v })
	// The zero values of StackDepth and NSmall select the published
	// values, so the 0 points run with −1: no stacks, and the big-k
	// strategy on every instance.
	sweep("stackDepth", []float64{0, 2, 4, 8}, func(c *core.Config, v float64) {
		c.Engine.StackDepth = int(v)
		if v == 0 {
			c.Engine.StackDepth = -1
		}
	})
	sweep("nSmall", []float64{0, 5, 15, 100}, func(c *core.Config, v float64) {
		c.NSmall = int(v)
		if v == 0 {
			c.NSmall = -1
		}
	})
	for _, v := range []float64{0.7, 0.8, 0.9, 1} {
		pts = append(pts, point{series: "fill", value: fmt.Sprint(v), cfg: core.Default(), fill: v})
	}
	add("ablation", "cut-objective", func(c *core.Config) { c.Engine.CutObjective = true })
	add("ablation", "level-1 gains", func(c *core.Config) { c.Engine.UseLevel2 = false })
	add("ablation", "pair-only", func(c *core.Config) { c.DisableSchedule = true })
	add("ablation", "windows off", func(c *core.Config) { c.Engine.DisableWindows = true })
	add("extension", "pin gain", func(c *core.Config) { c.Engine.PinGain = true })
	add("extension", "early stop 50", func(c *core.Config) { c.Engine.EarlyStop = 50 })
	add("extension", "early stop 200", func(c *core.Config) { c.Engine.EarlyStop = 200 })
	return pts
}

// instance is one circuit on one device.
type instance struct {
	name string
	h    *hypergraph.Hypergraph
	dev  device.Device
}

// pinPoor is an I/O-critical instance: 300 cells and 260 pads on a part
// with 48 pins, where the external-I/O balance of §3.4 decides K.
func pinPoor() instance {
	dev := device.Device{Name: "pin-poor", Family: device.XC3000, DatasheetCells: 120, Pins: 48, Fill: 1.0}
	return instance{"pin-poor", gen.Synthetic(300, 260, 7, false), dev}
}

// tableInstances returns the 34 instances of Tables 2–5, each circuit
// generated once per device family.
func tableInstances() []instance {
	type key struct {
		name   string
		family device.Family
	}
	hs := map[key]*hypergraph.Hypergraph{}
	var ins []instance
	for n := 2; n <= 5; n++ {
		dt, _ := tableSpec(n)
		for _, name := range dt.order {
			k := key{name, dt.dev.Family}
			if hs[k] == nil {
				spec, _ := gen.ByName(name)
				hs[k] = gen.Generate(spec, dt.dev.Family)
			}
			ins = append(ins, instance{name, hs[k], dt.dev})
		}
	}
	return ins
}

// sensitivityRow is one point's result: sums over the Tables 2–5
// instances and the pin-poor instance's own outcome.
type sensitivityRow struct {
	m, k, cut, infeasible, moves int
	pinPoor                      Outcome
}

// runSensitivity runs every distinct configuration of pts on the Tables
// 2–5 instances and the pin-poor instance, on the Suite worker pool.
// Points that share a configuration (the published one) run once.
func runSensitivity(pts []point) ([]sensitivityRow, error) {
	type config struct {
		cfg  core.Config
		fill float64
	}
	slot := map[config]int{}
	var configs []config
	of := make([]int, len(pts))
	for i, p := range pts {
		c := config{p.cfg, p.fill}
		s, ok := slot[c]
		if !ok {
			s = len(configs)
			slot[c] = s
			configs = append(configs, c)
		}
		of[i] = s
	}
	ins := append(tableInstances(), pinPoor())
	outs := make([]Outcome, len(configs)*len(ins))
	err := forEach(len(outs), func(j int) error {
		c, in := configs[j/len(ins)], ins[j%len(ins)]
		dev := in.dev
		if c.fill != 0 {
			dev = dev.WithFill(c.fill)
		}
		r, err := core.Partition(in.h, dev, c.cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", in.name, dev.Name, err)
		}
		outs[j] = Outcome{K: r.K, M: r.M, Feasible: r.Feasible, Cut: r.Partition.Cut(), Stats: r.Stats}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]sensitivityRow, len(pts))
	for i := range pts {
		run := outs[of[i]*len(ins) : (of[i]+1)*len(ins)]
		row := &rows[i]
		for _, out := range run[:len(run)-1] {
			row.m += out.M
			row.k += out.K
			row.cut += out.Cut
			row.moves += out.Stats.MovesApplied
			if !out.Feasible {
				row.infeasible++
			}
		}
		row.pinPoor = run[len(run)-1]
	}
	return rows, nil
}

// WriteSensitivity renders the sensitivity table: per configuration the
// lower bound ΣM, the device count ΣK, the cut Σcut, the infeasible
// instances and the applied FM moves, summed over the 34 instances of
// Tables 2–5, and K on the pin-poor instance ("!" marks an infeasible
// result). The published configuration runs once and is marked *.
func WriteSensitivity(w io.Writer, format Format) error {
	return writeSensitivity(w, sensitivityPoints(), format)
}

func writeSensitivity(w io.Writer, pts []point, format Format) error {
	rows, err := runSensitivity(pts)
	if err != nil {
		return err
	}
	if format == Text {
		fmt.Fprintln(w, "Sensitivity. FPART with one published constant changed per row (* = published), summed over the\n34 instances of Tables 2-5; the fill rows set δ on every device; pin-poor is an I/O-critical instance")
	}
	tw := newTableWriter(w, format, []int{17, 14, 4, 4, 6, 10, 9, 8})
	tw.header([]string{"series", "value", "ΣM", "ΣK", "Σcut", "infeasible", "moves", "pin-poor"})
	for i, p := range pts {
		row := rows[i]
		value := p.value
		if p.published() {
			value += "*"
		}
		ioK := fmt.Sprint(row.pinPoor.K)
		if !row.pinPoor.Feasible {
			ioK += "!"
		}
		tw.emit([]string{p.series, value, fmt.Sprint(row.m), fmt.Sprint(row.k), fmt.Sprint(row.cut),
			fmt.Sprint(row.infeasible), fmt.Sprint(row.moves), ioK})
	}
	return nil
}
