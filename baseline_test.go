package mccp_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strconv"
	"testing"

	"mccp/internal/harness"
)

var update = flag.Bool("update", false, "rewrite BENCH_baseline.json from the registered points")

// baselineFile is BENCH_baseline.json: per point, its benchmark name and
// its virtual-time metrics at the precision `go test -bench` prints.
type baselineFile struct {
	Results []baselineEntry `json:"results"`
}

type baselineEntry struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// TestBaselineExact is the standing "bit-identical" rule as a test: every
// point of every registered experiment, run once, must appear in
// BENCH_baseline.json with every metric equal to the committed value —
// at the precision `go test -bench` prints, which is what the file
// records — and no baseline entry may be left without a point. With
// -update it writes the file from the points instead:
//
//	go test -run TestBaselineExact -update .
func TestBaselineExact(t *testing.T) {
	var got []baselineEntry
	for _, exp := range harness.Experiments {
		for _, p := range exp.Points {
			e := baselineEntry{Name: p.Name, Metrics: map[string]float64{}}
			for _, m := range p.Run() {
				v, err := strconv.ParseFloat(harness.BenchValue(m.Value), 64)
				if err != nil {
					t.Fatalf("%s %s: %v", p.Name, m.Name, err)
				}
				e.Metrics[m.Name] = v
			}
			got = append(got, e)
		}
	}
	if *update {
		sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(baselineFile{got}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_baseline.json", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to BENCH_baseline.json", len(got))
		return
	}

	data, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var file baselineFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	baseline := map[string]map[string]float64{}
	for _, r := range file.Results {
		baseline[r.Name] = r.Metrics
	}
	for _, e := range got {
		want, ok := baseline[e.Name]
		if !ok {
			t.Errorf("%s: not in BENCH_baseline.json", e.Name)
			continue
		}
		delete(baseline, e.Name)
		for name, w := range want {
			if g, ok := e.Metrics[name]; !ok || g != w {
				t.Errorf("%s %s: %v, baseline %v", e.Name, name, g, w)
			}
		}
		for name := range e.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s reports %s, which the baseline lacks", e.Name, name)
			}
		}
	}
	for name := range baseline {
		t.Errorf("baseline entry %s has no registered point", name)
	}
}
