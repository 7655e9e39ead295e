// Root benchmark suite: one bench per table / figure / quantitative result
// of the paper's evaluation (§VII) and of the extensions built on it.
// Every paper benchmark is a one-line stub: the rows are the registered
// points of internal/harness's experiments, so `go test -bench`,
// cmd/benchtables and TestBaselineExact report the same numbers. All
// point metrics are virtual-time (Mbps at the modeled 190 MHz, cycles per
// block, milliseconds per reconfiguration) and deterministic per seed;
// ns/op and allocs/op time the simulation itself.
//
// Experiment index (harness.Experiments):
//
//	E1  BenchmarkLoopTimes_*        loop-cycle formulas of §VII.A, 9 rows
//	E2  BenchmarkTable2_*           Table II throughput, all 18 cells
//	E3  BenchmarkTable3_*           Table III comparison (ours + baselines)
//	E4  BenchmarkTable4_*           Table IV partial reconfiguration
//	E5  BenchmarkLatency_*          §VII.A latency-vs-throughput trade-off
//	E8  BenchmarkResources          §VII.A area/frequency result
//	E9  BenchmarkSchedPolicy        §VIII scheduling-policy extension
//	E10 BenchmarkAblation_*         design-choice ablations
//	E11 BenchmarkCluster            sharded multi-MCCP service-layer scaling
//	E12 BenchmarkQoS_Overload       §VIII QoS overload mix, 2 rows
//	    BenchmarkQoS_Drains         shaper drain fairness, 3 rows
//	E13 BenchmarkLoadCurve          open-loop load curves, 14 rows
//	E14 BenchmarkWireLatency        wire-level latency, 3 + 7 (sessions=1000) rows
//	E15 BenchmarkReconfigUnderLoad  rolling reconfiguration, 6 + 6 (shards=4_scale=64)
//	E16 BenchmarkFaultCurves        fault curves, 8 + 8 (sessions=256) rows
//	E17 BenchmarkRecoveryCurves     recovery curves, 3 + 4 (sessions=256_scale=4096)
//	E18 BenchmarkStageAttribution   stage attribution, 10 rows
//
// 121 points in all: BENCH_baseline.json has one entry for each.
package mccp_test

import (
	"strings"
	"testing"
	"time"

	"mccp/internal/cryptocore"
	"mccp/internal/harness"
	"mccp/internal/sim"
)

// benchExperiment runs the registered point named after the calling
// benchmark, or — when the benchmark's name is a family — every point
// filed under it as a sub-benchmark. Each iteration runs, and therefore
// times, the point from scratch; the point's metrics are reported as-is.
// TestBaselineExact holds every one of them to BENCH_baseline.json.
func benchExperiment(b *testing.B) {
	name := strings.TrimPrefix(b.Name(), "Benchmark")
	found := false
	for _, exp := range harness.Experiments {
		for _, p := range exp.Points {
			if p.Name == name {
				runPoint(b, p)
				return
			}
			if sub, ok := strings.CutPrefix(p.Name, name+"/"); ok {
				found = true
				b.Run(sub, func(b *testing.B) { runPoint(b, p) })
			}
		}
	}
	if !found {
		b.Fatalf("no registered point is named %s or filed under it", name)
	}
}

func runPoint(b *testing.B, p harness.Point) {
	b.ReportAllocs()
	var metrics []harness.Metric
	for i := 0; i < b.N; i++ {
		metrics = p.Run()
	}
	for _, m := range metrics {
		b.ReportMetric(m.Value, m.Name)
	}
}

func BenchmarkLoopTimes_GCM(b *testing.B)          { benchExperiment(b) }
func BenchmarkLoopTimes_CCM2core(b *testing.B)     { benchExperiment(b) }
func BenchmarkLoopTimes_CCM1core(b *testing.B)     { benchExperiment(b) }
func BenchmarkLoopTimes_GCM_192(b *testing.B)      { benchExperiment(b) }
func BenchmarkLoopTimes_CCM2core_192(b *testing.B) { benchExperiment(b) }
func BenchmarkLoopTimes_CCM1core_192(b *testing.B) { benchExperiment(b) }
func BenchmarkLoopTimes_GCM_256(b *testing.B)      { benchExperiment(b) }
func BenchmarkLoopTimes_CCM2core_256(b *testing.B) { benchExperiment(b) }
func BenchmarkLoopTimes_CCM1core_256(b *testing.B) { benchExperiment(b) }

func BenchmarkTable2_GCM_1core_128(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_GCM_4x1_128(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_CCM_1core_128(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_CCM_4x1_128(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_CCM_2core_128(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_CCM_2x2_128(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_GCM_1core_192(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_GCM_4x1_192(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_CCM_1core_192(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_CCM_4x1_192(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_CCM_2core_192(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_CCM_2x2_192(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_GCM_1core_256(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_GCM_4x1_256(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_CCM_1core_256(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_CCM_4x1_256(b *testing.B)   { benchExperiment(b) }
func BenchmarkTable2_CCM_2core_256(b *testing.B) { benchExperiment(b) }
func BenchmarkTable2_CCM_2x2_256(b *testing.B)   { benchExperiment(b) }

func BenchmarkTable3_ThisWork(b *testing.B)        { benchExperiment(b) }
func BenchmarkTable3_Baselines(b *testing.B)       { benchExperiment(b) }
func BenchmarkTable4_Reconfiguration(b *testing.B) { benchExperiment(b) }
func BenchmarkLatency_CCM_4x1_vs_2x2(b *testing.B) { benchExperiment(b) }
func BenchmarkResources(b *testing.B)              { benchExperiment(b) }
func BenchmarkSchedPolicy(b *testing.B)            { benchExperiment(b) }
func BenchmarkAblation_GHashDigits(b *testing.B)   { benchExperiment(b) }
func BenchmarkAblation_KeySizes(b *testing.B)      { benchExperiment(b) }
func BenchmarkCluster(b *testing.B)                { benchExperiment(b) }

func BenchmarkQoS_Overload(b *testing.B)      { benchExperiment(b) }
func BenchmarkQoS_Drains(b *testing.B)        { benchExperiment(b) }
func BenchmarkLoadCurve(b *testing.B)         { benchExperiment(b) }
func BenchmarkWireLatency(b *testing.B)       { benchExperiment(b) }
func BenchmarkReconfigUnderLoad(b *testing.B) { benchExperiment(b) }
func BenchmarkFaultCurves(b *testing.B)       { benchExperiment(b) }
func BenchmarkRecoveryCurves(b *testing.B)    { benchExperiment(b) }
func BenchmarkStageAttribution(b *testing.B)  { benchExperiment(b) }

// --- Simulator self-benchmarks ----------------------------------------------

// BenchmarkSimulatorRate reports how fast the cycle simulation itself runs
// (simulated cycles per wall second), to size longer experiments.
func BenchmarkSimulatorRate(b *testing.B) {
	b.ReportAllocs()
	var cycles float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		// Two 2KB GCM packets end-to-end; recover the measured virtual
		// duration from the returned throughput figure.
		mbps := harness.MeasureThroughput(cryptocore.FamilyGCM, harness.GCM1, 16, 2048, 2)
		cycles += float64(2*2048*8) / (mbps * 1e6) * sim.DefaultFreqHz
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(cycles/float64(b.N), "cycles_per_iter")
	if wall > 0 {
		b.ReportMetric(cycles/wall/1e6, "sim_Mcycles_per_s")
	}
}
