package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Metric is one reported figure of a sweep point: the (value, unit) pair
// `go test -bench` prints and BENCH_baseline.json pins.
type Metric struct {
	Name  string
	Value float64
}

// Point is one row of an experiment's bench-sized sweep. Name is the
// benchmark name the row is filed under ("LoadCurve/qos-priority/
// offered=0.5"). Run measures the row from scratch — calibration
// included, so timing Run times the row's whole cost — and is a pure
// function: virtual time and fixed seeds only.
type Point struct {
	Name string
	Run  func() []Metric
}

// GateReport is the outcome of one gate run.
type GateReport struct {
	// Summary is the measured values against their limits, one line;
	// Details are informational lines printed under it.
	Summary string
	Details []string
	// Violations names every failed clause; the gate passes when it is
	// empty.
	Violations []string
}

// require records a violation when ok is false.
func (r *GateReport) require(ok bool, format string, args ...any) {
	if !ok {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// Gate is an experiment's CI check: a small fixed-seed run of the
// experiment held against stated limits. Doc is the one place those
// limits are written down; TestGates logs it with every verdict. Every
// clause is exact, so a gate reports the same thing on every run.
type Gate struct {
	Name, Doc string
	Check     func() GateReport
}

// Experiment is one registered experiment: a stable ID from the
// roadmap's numbering, the benchtables -table name and headline, the
// interpretation notes that belong under its table, the bench-sized
// sweep as a list of points, and at most one CI gate. Drivers
// (benchtables, TestGates, the root benchmarks and TestBaselineExact)
// iterate the registry; adding an experiment is one file declaring its
// Experiment value plus one entry in Experiments.
type Experiment struct {
	ID, Table, Title string
	// Run, when set, produces a table larger than the points — the full
	// sweep of a composite experiment. Without it the table is the points.
	Run   func() string
	Notes []string
	// Points is the sweep the benchmarks report, in output order.
	Points []Point
	Gate   *Gate
}

// Experiments lists every registered experiment in ID order: the paper's
// own results (E1–E11, paper.go), then the composite extensions, each
// declared beside its implementation.
var Experiments = []Experiment{e1, e2, e3, e4, e5, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, e18}

// Render runs the experiment and returns its table: Run's if it has one,
// else one row per point and one column per metric.
func (e Experiment) Render() string {
	if e.Run != nil {
		return e.Run()
	}
	var cols []string
	seen := map[string]bool{}
	values := make([]map[string]float64, len(e.Points))
	for i, p := range e.Points {
		values[i] = map[string]float64{}
		for _, m := range p.Run() {
			if !seen[m.Name] {
				seen[m.Name] = true
				cols = append(cols, m.Name)
			}
			values[i][m.Name] = m.Value
		}
	}
	rows := [][]string{append([]string{"point"}, cols...)}
	for i, p := range e.Points {
		row := []string{p.Name}
		for _, c := range cols {
			cell := "-"
			if v, ok := values[i][c]; ok {
				cell = BenchValue(v)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	width := make([]int, len(cols)+1)
	for _, row := range rows {
		for j, cell := range row {
			width[j] = max(width[j], len(cell))
		}
	}
	var b strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&b, "%-*s", width[0], row[0])
		for j := 1; j < len(row); j++ {
			fmt.Fprintf(&b, "  %*s", width[j], row[j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BenchValue formats v at the precision `go test -bench` prints a metric
// (and so BENCH_baseline.json records it): whole numbers from 999.95 up,
// four significant figures below.
func BenchValue(v float64) string {
	prec := 0
	for _, limit := range []float64{999.95, 99.995, 9.9995, 0.99995, 0.099995, 0.0099995, 0.00099995} {
		if y := math.Abs(v); y == 0 || y >= limit {
			break
		}
		prec++
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Gates returns every registered experiment's gate, in registry order.
func Gates() []Gate {
	var gates []Gate
	for _, e := range Experiments {
		if e.Gate != nil {
			gates = append(gates, *e.Gate)
		}
	}
	return gates
}

// sweepPoints names one point per (policy, offered) pair under prefix,
// policy-major — the E13/E18 sweep shape.
func sweepPoints(prefix string, policies []string, offered []float64, run func(policy string, offered float64) []Metric) []Point {
	var pts []Point
	for _, pol := range policies {
		for _, off := range offered {
			pts = append(pts, Point{
				Name: fmt.Sprintf("%s/%s/offered=%.1f", prefix, pol, off),
				Run:  func() []Metric { return run(pol, off) },
			})
		}
	}
	return pts
}

// flag01 renders a boolean as the 0/1 metric the baseline records.
func flag01(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
