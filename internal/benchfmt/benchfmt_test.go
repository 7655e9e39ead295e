package benchfmt

import (
	"bytes"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mccp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable2_GCM_1core_128-8    1    56789012 ns/op    437.0 system_Mbps    496.2 paper_methodology_Mbps
BenchmarkQoS_Overload/qos-priority-8    1    1843 ns/op    1105 background_Mbps    179.7 voice_Mbps    0.9710 voice_retention
BenchmarkCluster/shards=4-8    1    9000000 ns/op    3400 aggregate_Mbps    120 host_Mbps
BenchmarkLoadCurve/qos-priority/offered=2.0-8    1    2000 ns/op    1388 delivered_Mbps    1.000 voice_delivered_frac    7066 voice_p99_cycles
BenchmarkWireLatency/offered=0.5-8    1    1500 ns/op    1374 wire_Mbps    10198 voice_wire_p99_cycles
PASS
ok   mccp  0.222s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5", len(results))
	}
	r := results[0]
	if r.Name != "Table2_GCM_1core_128" || r.Iterations != 1 {
		t.Fatalf("result = %+v", r)
	}
	if r.Metrics["system_Mbps"] != 437 || r.Metrics["ns_op"] != 56789012 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
	if results[1].Name != "QoS_Overload/qos-priority" {
		t.Fatalf("subbenchmark name = %q", results[1].Name)
	}
	if results[1].Metrics["voice_retention"] != 0.971 {
		t.Fatalf("retention = %v", results[1].Metrics)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	results, _ := Parse(strings.NewReader(sample))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "Table2|Cluster|QoS", results); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("round trip lost results: %d vs %d", len(back), len(results))
	}
	// WriteJSON sorts by name.
	for i := 1; i < len(back); i++ {
		if back[i-1].Name > back[i].Name {
			t.Fatal("results not sorted")
		}
	}
}

func TestGateDetectsRegressions(t *testing.T) {
	baseline, _ := Parse(strings.NewReader(sample))
	current, _ := Parse(strings.NewReader(sample))
	// Unchanged run: no regressions.
	regs, err := Gate(current, baseline, "Table2", 0.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("clean gate: %v %v", regs, err)
	}
	// 30% throughput drop on a Table II cell: caught.
	current[0].Metrics["system_Mbps"] = 437 * 0.69
	regs, _ = Gate(current, baseline, "Table2", 0.25)
	if len(regs) != 1 || regs[0].Metric != "system_Mbps" {
		t.Fatalf("regression not caught: %v", regs)
	}
	// Same drop passes a looser gate.
	regs, _ = Gate(current, baseline, "Table2", 0.5)
	if len(regs) != 0 {
		t.Fatalf("tolerance ignored: %v", regs)
	}
	// ns/op explosions never gate (host-dependent).
	current[0].Metrics["system_Mbps"] = 437
	current[0].Metrics["ns_op"] = 1e12
	if regs, _ = Gate(current, baseline, "Table2", 0.25); len(regs) != 0 {
		t.Fatalf("ns/op gated: %v", regs)
	}
	// host_Mbps never gates either.
	current[2].Metrics["host_Mbps"] = 1
	if regs, _ = Gate(current, baseline, "", 0.25); len(regs) != 0 {
		t.Fatalf("host_Mbps gated: %v", regs)
	}
	// A matched baseline benchmark missing from the run fails the gate.
	regs, _ = Gate(current[1:], baseline, "Table2", 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0].String(), "missing") {
		t.Fatalf("missing benchmark not caught: %v", regs)
	}
	// voice_retention is gated (deterministic ratio).
	current[1].Metrics["voice_retention"] = 0.5
	regs, _ = Gate(current, baseline, "QoS", 0.25)
	if len(regs) != 1 || regs[0].Metric != "voice_retention" {
		t.Fatalf("retention regression not caught: %v", regs)
	}
	current[1].Metrics["voice_retention"] = 0.9710
	// The E13 delivered fraction is gated (a loss-curve point read as
	// higher-is-better); its latency cycles are not (cycle counts are not
	// throughput figures).
	current[3].Metrics["voice_delivered_frac"] = 0.5
	current[3].Metrics["voice_p99_cycles"] = 1e9
	regs, _ = Gate(current, baseline, "LoadCurve", 0.25)
	if len(regs) != 1 || regs[0].Metric != "voice_delivered_frac" {
		t.Fatalf("delivered-fraction regression not caught: %v", regs)
	}
	// ...and at the tight per-metric tolerance: a 5% voice loss is far
	// inside the 25% throughput headroom but must still fail.
	current[3].Metrics["voice_delivered_frac"] = 0.95
	regs, _ = Gate(current, baseline, "LoadCurve", 0.25)
	if len(regs) != 1 || regs[0].Metric != "voice_delivered_frac" {
		t.Fatalf("5%% voice loss slipped through the delivered-frac tolerance: %v", regs)
	}
	current[3].Metrics["voice_delivered_frac"] = 0.99
	if regs, _ = Gate(current, baseline, "LoadCurve", 0.25); len(regs) != 0 {
		t.Fatalf("1%% drift should pass the 2%% delivered-frac tolerance: %v", regs)
	}
	// The E14 wire p99 gates lower-is-better: a blow-up past tolerance
	// fails, a drop (improvement) passes, and the rule is scoped to
	// metrics containing "wire" — the E13 voice_p99_cycles above stayed
	// ungated even at 1e9.
	current[4].Metrics["voice_wire_p99_cycles"] = 10198 * 1.5
	regs, _ = Gate(current, baseline, "Wire", 0.25)
	if len(regs) != 1 || regs[0].Metric != "voice_wire_p99_cycles" {
		t.Fatalf("wire p99 blow-up not caught: %v", regs)
	}
	current[4].Metrics["voice_wire_p99_cycles"] = 10198 * 0.5
	if regs, _ = Gate(current, baseline, "Wire", 0.25); len(regs) != 0 {
		t.Fatalf("wire p99 improvement gated: %v", regs)
	}
	current[4].Metrics["voice_wire_p99_cycles"] = 10198
	// wire_Mbps rides the ordinary higher-is-better throughput rule.
	current[4].Metrics["wire_Mbps"] = 1374 * 0.5
	regs, _ = Gate(current, baseline, "Wire", 0.25)
	if len(regs) != 1 || regs[0].Metric != "wire_Mbps" {
		t.Fatalf("wire throughput regression not caught: %v", regs)
	}
}

func TestParseKeepsProcs(t *testing.T) {
	in := "BenchmarkCluster/shards=8-4   1  1000 ns/op  62.8 host_Mbps\n"
	res, err := Parse(strings.NewReader(in))
	if err != nil || len(res) != 1 {
		t.Fatalf("parse: %v (%d results)", err, len(res))
	}
	if res[0].Name != "Cluster/shards=8" || res[0].Procs != 4 {
		t.Fatalf("name/procs = %q/%d, want Cluster/shards=8 / 4", res[0].Name, res[0].Procs)
	}
}
