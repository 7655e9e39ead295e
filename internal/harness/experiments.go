package harness

import "fmt"

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
	// Violations names every failed exact clause; HostViolations every
	// failed wall-clock clause (only a WallClock gate has any). The gate
	// passes when both are empty; `go test` asserts only the first.
	Violations, HostViolations []string
}

// require records a violation when ok is false.
func (r *GateReport) require(ok bool, format string, args ...any) {
	if !ok {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// Gate is an experiment's CI check: a small fixed-seed run of the
// experiment held against stated limits. Doc is the one place those
// limits are written down; drivers print it with every verdict.
type Gate struct {
	Name, Doc string
	// WallClock marks a gate whose report carries a host-time measurement
	// and is therefore not reproducible run-to-run.
	WallClock bool
	Check     func() GateReport
}

// Experiment is one registered composite experiment: a stable ID from
// the roadmap's numbering, the benchtables -table name and headline, a
// Run entry point producing the formatted table with the interpretation
// notes that belong under it, the bench-sized sweep as a list of points,
// and at most one CI gate. Drivers (benchtables, benchjson, the root
// benchmarks and TestBaselineExact) iterate the registry; adding an
// experiment is one file declaring its Experiment value plus one entry
// in Experiments.
type Experiment struct {
	ID, Table, Title string
	// Run executes the experiment and returns its formatted table.
	// scale is the driver's size knob (benchtables -packets); <= 0
	// selects each experiment's default.
	Run   func(scale int) string
	Notes []string
	// Points is the sweep the benchmarks report, in output order.
	Points []Point
	Gate   *Gate
}

// Experiments lists the composite evaluation experiments in ID order.
// Tables E1–E11 predate the registry and stay as direct harness calls
// (they are single-table reproductions of the paper); the composite
// extensions register here, each declared beside its implementation.
var Experiments = []Experiment{e12, e13, e14, e15, e16, e17, e18}

// ExperimentByID returns the registered experiment with that ID.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
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
