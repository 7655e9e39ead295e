package mccp_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mccp/internal/benchfmt"
	"mccp/internal/harness"
)

// hostMetrics describe the machine the run happened on; everything else
// in BENCH_baseline.json is virtual-time and must reproduce exactly.
var hostMetrics = map[string]bool{"ns_op": true, "B_op": true, "allocs_op": true, "host_Mbps": true}

// TestBaselineExact is the standing "bit-identical" rule as a test: every
// point of every registered experiment, run once, must appear in
// BENCH_baseline.json with every non-host metric equal to the committed
// value — at the precision `go test -bench` prints, which is what the
// file records — and no baseline entry may be left without a point.
func TestBaselineExact(t *testing.T) {
	f, err := os.Open("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := benchfmt.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]map[string]float64{}
	for _, r := range results {
		baseline[r.Name] = r.Metrics
	}

	for _, exp := range harness.Experiments {
		for _, p := range exp.Points {
			want, ok := baseline[p.Name]
			if !ok {
				t.Errorf("%s %s: not in BENCH_baseline.json", exp.ID, p.Name)
				continue
			}
			delete(baseline, p.Name)

			// Render the point the way the benchmark run does and read it
			// back the way benchjson does, so both sides carry the printed
			// precision.
			extra := map[string]float64{}
			for _, m := range p.Run() {
				extra[m.Name] = m.Value
			}
			line := fmt.Sprintf("Benchmark%s-1\t%s\n", p.Name, testing.BenchmarkResult{N: 1, Extra: extra})
			got, err := benchfmt.Parse(strings.NewReader(line))
			if err != nil || len(got) != 1 {
				t.Fatalf("%s: cannot parse %q: %v", p.Name, line, err)
			}
			for name, w := range want {
				if g, ok := got[0].Metrics[name]; !hostMetrics[name] && (!ok || g != w) {
					t.Errorf("%s %s: %v, baseline %v", p.Name, name, g, w)
				}
			}
			for name := range got[0].Metrics {
				if _, ok := want[name]; !ok && !hostMetrics[name] {
					t.Errorf("%s reports %s, which the baseline lacks", p.Name, name)
				}
			}
		}
	}
	for name := range baseline {
		t.Errorf("baseline entry %s has no registered point", name)
	}
}
