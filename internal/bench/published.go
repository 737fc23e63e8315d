// Package bench regenerates the FPART paper's experimental tables
// (Tables 1–6). For every method implemented in this repository — FPART
// (internal/core), the k-way.x baseline (core.KWayX), and the
// flow-based baseline (internal/flow) — the harness measures fresh results
// on the synthetic benchmark suite; the remaining competitor columns
// (r+p.0, PROP, SC, WCDP) are reproduced from the paper as published
// reference values, clearly marked in the output.
package bench

// Published holds one row of published results; zero means "not reported"
// (rendered as "-").
type Published struct {
	KwayX   int // k-way.x (p,p) [11]
	RP0     int // r+p.0 (p,r,p) [11]
	PropOP  int // PROP (p,o,p) [12]
	PropROP int // PROP (p,r,o,p) [12]
	SC      int // set covering [3]
	WCDP    int // WINDOW clustering + DP [6]
	FBBMW   int // network flow [16]
	FPART   int // the paper's own result
	M       int // published lower bound
}

// Table2Published: partitioning into XC3020 devices.
var Table2Published = map[string]Published{
	"c3540":  {KwayX: 6, RP0: 6, PropOP: 6, PropROP: 6, FBBMW: 6, FPART: 6, M: 5},
	"c5315":  {KwayX: 9, RP0: 8, PropOP: 9, PropROP: 8, FBBMW: 8, FPART: 9, M: 7},
	"c6288":  {KwayX: 16, RP0: 16, PropOP: 12, PropROP: 12, FBBMW: 15, FPART: 15, M: 15},
	"c7552":  {KwayX: 10, RP0: 10, PropOP: 9, PropROP: 9, FBBMW: 9, FPART: 9, M: 9},
	"s5378":  {KwayX: 11, RP0: 10, PropOP: 11, PropROP: 9, FBBMW: 9, FPART: 9, M: 7},
	"s9234":  {KwayX: 10, RP0: 10, PropOP: 9, PropROP: 9, FBBMW: 8, FPART: 8, M: 8},
	"s13207": {KwayX: 23, RP0: 23, PropOP: 21, PropROP: 19, FBBMW: 18, FPART: 18, M: 16},
	"s15850": {KwayX: 19, RP0: 19, PropOP: 17, PropROP: 16, FBBMW: 15, FPART: 15, M: 15},
	"s38417": {KwayX: 46, RP0: 48, PropOP: 44, PropROP: 44, FBBMW: 41, FPART: 39, M: 39},
	"s38584": {KwayX: 60, RP0: 60, PropOP: 60, PropROP: 56, FBBMW: 54, FPART: 52, M: 51},
}

// Table3Published: partitioning into XC3042 devices.
var Table3Published = map[string]Published{
	"c3540":  {KwayX: 3, RP0: 3, PropOP: 2, PropROP: 2, FBBMW: 3, FPART: 3, M: 3},
	"c5315":  {KwayX: 5, RP0: 5, PropOP: 4, PropROP: 4, FBBMW: 4, FPART: 5, M: 4},
	"c6288":  {KwayX: 7, RP0: 7, PropOP: 6, PropROP: 5, FBBMW: 7, FPART: 7, M: 7},
	"c7552":  {KwayX: 4, RP0: 4, PropOP: 5, PropROP: 4, FBBMW: 4, FPART: 4, M: 4},
	"s5378":  {KwayX: 5, RP0: 4, PropOP: 4, PropROP: 4, FBBMW: 4, FPART: 4, M: 3},
	"s9234":  {KwayX: 4, RP0: 4, PropOP: 4, PropROP: 4, FBBMW: 4, FPART: 4, M: 4},
	"s13207": {KwayX: 11, RP0: 10, PropOP: 9, PropROP: 8, FBBMW: 9, FPART: 9, M: 8},
	"s15850": {KwayX: 8, RP0: 9, PropOP: 8, PropROP: 7, FBBMW: 8, FPART: 7, M: 7},
	"s38417": {KwayX: 20, RP0: 20, PropOP: 20, PropROP: 19, FBBMW: 18, FPART: 18, M: 18},
	"s38584": {KwayX: 27, RP0: 27, PropOP: 25, PropROP: 25, FBBMW: 23, FPART: 23, M: 23},
}

// Table4Published: partitioning into XC3090 devices. The paper splits this
// table into small circuits (where SC/WCDP/FBB-MW report nothing) and the
// four big ones.
var Table4Published = map[string]Published{
	"c3540":  {KwayX: 1, RP0: 1, FPART: 1, M: 1},
	"c5315":  {KwayX: 3, RP0: 3, FPART: 3, M: 3},
	"c6288":  {KwayX: 3, RP0: 3, FPART: 3, M: 3},
	"c7552":  {KwayX: 3, RP0: 3, FPART: 3, M: 3},
	"s5378":  {KwayX: 2, RP0: 2, FPART: 2, M: 2},
	"s9234":  {KwayX: 2, RP0: 2, FPART: 2, M: 2},
	"s13207": {KwayX: 7, RP0: 4, SC: 6, WCDP: 6, FBBMW: 5, FPART: 5, M: 4},
	"s15850": {KwayX: 4, RP0: 3, SC: 3, WCDP: 3, FBBMW: 3, FPART: 3, M: 3},
	"s38417": {KwayX: 9, RP0: 8, SC: 10, WCDP: 8, FBBMW: 8, FPART: 8, M: 8},
	"s38584": {KwayX: 14, RP0: 11, SC: 14, WCDP: 12, FBBMW: 11, FPART: 11, M: 11},
}

// Table5Published: partitioning into XC2064 devices (c-circuits only).
var Table5Published = map[string]Published{
	"c3540": {KwayX: 6, SC: 6, WCDP: 7, FBBMW: 6, FPART: 6, M: 6},
	"c5315": {KwayX: 11, SC: 12, WCDP: 12, FBBMW: 10, FPART: 10, M: 9},
	"c7552": {KwayX: 11, SC: 11, WCDP: 11, FBBMW: 10, FPART: 10, M: 10},
	"c6288": {KwayX: 14, SC: 14, WCDP: 14, FBBMW: 14, FPART: 14, M: 14},
}

// Table6Published: FPART CPU seconds on a SUN Sparc Ultra 5, per circuit
// and device; zero means not reported.
var Table6Published = map[string][4]float64{
	// XC3020, XC3042, XC3090, XC2064
	"c3540":  {15.59, 2.75, 1.00, 11.2},
	"c5315":  {43.99, 16.12, 6.15, 34.74},
	"c6288":  {89.14, 36.45, 10.83, 64.62},
	"c7552":  {46.23, 14.11, 6.05, 40.89},
	"s5378":  {52.09, 22.01, 3.87, 0},
	"s9234":  {59.47, 23.65, 3.45, 0},
	"s13207": {121.51, 95.18, 91.61, 0},
	"s15850": {156.25, 61.54, 15.61, 0},
	"s38417": {464.66, 131.48, 78.54, 0},
	"s38584": {875.26, 258.73, 184.12, 0},
}

// CircuitOrder is the paper's row order in Tables 1-3 and 6.
var CircuitOrder = []string{
	"c3540", "c5315", "c6288", "c7552",
	"s5378", "s9234", "s13207", "s15850", "s38417", "s38584",
}

// Table5Order is the paper's row order in Table 5.
var Table5Order = []string{"c3540", "c5315", "c7552", "c6288"}
