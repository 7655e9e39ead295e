package harness

import (
	"reflect"
	"strings"
	"testing"
)

// TestGates runs every registered CI gate: each must pass on a healthy
// tree and report the same thing twice. -v prints each gate's summary,
// its doc line (the one place its limits are written) and its details;
// `go test ./internal/harness -run TestGates/obs -v` runs one.
func TestGates(t *testing.T) {
	gates := Gates()
	if len(gates) != 6 {
		t.Fatalf("%d gates registered, want one each for E13-E18", len(gates))
	}
	for _, g := range gates {
		t.Run(g.Name, func(t *testing.T) {
			r := g.Check()
			t.Logf("%s\nchecks: %s\n%s", r.Summary, g.Doc, strings.Join(r.Details, "\n"))
			if len(r.Violations) > 0 {
				t.Fatalf("gate failed: %q", r.Violations)
			}
			if r.Summary == "" || len(r.Details) == 0 {
				t.Fatalf("gate reported nothing: %+v", r)
			}
			if again := g.Check(); !reflect.DeepEqual(r, again) {
				t.Fatalf("gate not reproducible:\n%+v\n%+v", r, again)
			}
		})
	}
}

// TestBenchValueMatchesGoTest pins the renderer's number format to the
// one `go test -bench` prints, which is what BENCH_baseline.json records:
// a rendered E1–E11 table then reads exactly the pinned values.
func TestBenchValueMatchesGoTest(t *testing.T) {
	for _, v := range []float64{0, 1650.4, 999.95, 999.94, 436.26, 99.995, 53, 7.5163, 0.2549, 0.012345, 0.00099994, -3.2} {
		fields := strings.Fields(testing.BenchmarkResult{N: 1, Extra: map[string]float64{"x": v}}.String())
		if want := fields[len(fields)-2]; BenchValue(v) != want {
			t.Errorf("BenchValue(%v) = %s, go test prints %s", v, BenchValue(v), want)
		}
	}
}

// TestRenderTable pins the E1–E11 table layout: one row per point, one
// column per metric in first-seen order, "-" where a point lacks one.
func TestRenderTable(t *testing.T) {
	exp := Experiment{Points: []Point{
		{Name: "A/x=1", Run: func() []Metric { return []Metric{{"sys_Mbps", 1650.4}, {"ratio", 0.2549}} }},
		{Name: "A/longer=2", Run: func() []Metric { return []Metric{{"cycles", 53}} }},
	}}
	want := "" +
		"point       sys_Mbps   ratio  cycles\n" +
		"A/x=1           1650  0.2549       -\n" +
		"A/longer=2         -       -   53.00\n"
	if got := exp.Render(); got != want {
		t.Fatalf("Render:\n%s\nwant:\n%s", got, want)
	}
}
