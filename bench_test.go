// Root benchmark suite: one bench per table / figure / quantitative result
// of the paper's evaluation (§VII). Each benchmark drives the full
// simulated MCCP and reports paper-aligned custom metrics (Mbps at the
// modeled 190 MHz, cycles per block, milliseconds per reconfiguration)
// alongside the usual ns/op of the simulation itself.
//
// Experiment index (see DESIGN.md / EXPERIMENTS.md):
//
//	E1 BenchmarkLoopTimes_*        loop-cycle formulas of §VII.A
//	E2 BenchmarkTable2_*           Table II throughput cells
//	E3 BenchmarkTable3_*           Table III comparison (ours + baselines)
//	E4 BenchmarkTable4_*           Table IV partial reconfiguration
//	E5 BenchmarkLatency_*          §VII.A latency-vs-throughput trade-off
//	E8 BenchmarkResources          §VII.A area/frequency result
//	E9 BenchmarkSchedPolicy_*      §VIII scheduling-policy extension
//	E10 BenchmarkAblation_*        design-choice ablations
//	E11 BenchmarkCluster           sharded multi-MCCP service-layer scaling
//	E12–E18 benchExperiment        the harness registry's composite sweeps
package mccp_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mccp/internal/aes"
	"mccp/internal/baseline"
	"mccp/internal/bits"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/fpga"
	"mccp/internal/ghash"
	"mccp/internal/harness"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
	"mccp/internal/trafficgen"
)

// benchThroughput measures one Table II cell per iteration. system_Mbps is
// the aggregate with all instances concurrently contending for the
// crossbar; paper_methodology_Mbps scales a single-instance run by the
// instance count, which is how Table II's NxM columns are built.
func benchThroughput(b *testing.B, fam cryptocore.Family, m harness.Mapping, keyBytes int) {
	b.Helper()
	b.ReportAllocs()
	var system float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		system = harness.MeasureThroughput(fam, m, keyBytes, harness.PacketBytes, 8*m.Streams)
	}
	wall := time.Since(start).Seconds()
	perInstance := system
	if m.Streams > 1 {
		single := harness.Mapping{Name: m.Name, Streams: 1, Split: m.Split}
		perInstance = harness.MeasureThroughput(fam, single, keyBytes, harness.PacketBytes, 8)
	}
	b.ReportMetric(system, "system_Mbps")
	b.ReportMetric(perInstance*float64(m.Streams), "paper_methodology_Mbps")
	if wall > 0 {
		// Wall-clock payload throughput of the simulator itself on this
		// host (nondeterministic, never gated — see benchfmt).
		payloadBits := float64(b.N) * float64(8*m.Streams) * harness.PacketBytes * 8
		b.ReportMetric(payloadBits/wall/1e6, "host_Mbps")
	}
}

// --- E2: Table II -----------------------------------------------------------

func BenchmarkTable2_GCM_1core_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM1, 16)
}
func BenchmarkTable2_GCM_1core_192(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM1, 24)
}
func BenchmarkTable2_GCM_1core_256(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM1, 32)
}
func BenchmarkTable2_GCM_4x1_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyGCM, harness.GCM4x1, 16)
}
func BenchmarkTable2_CCM_1core_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM1, 16)
}
func BenchmarkTable2_CCM_1core_192(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM1, 24)
}
func BenchmarkTable2_CCM_1core_256(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM1, 32)
}
func BenchmarkTable2_CCM_2core_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM2, 16)
}
func BenchmarkTable2_CCM_4x1_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM4x1, 16)
}
func BenchmarkTable2_CCM_2x2_128(b *testing.B) {
	benchThroughput(b, cryptocore.FamilyCCM, harness.CCM2x2, 16)
}

// --- E1: loop-time formulas -------------------------------------------------

func benchLoop(b *testing.B, fam cryptocore.Family, split bool, want float64) {
	b.ReportAllocs()
	var rows []harness.LoopTimeRow
	for i := 0; i < b.N; i++ {
		rows = harness.MeasureLoopTimes()
	}
	for _, r := range rows {
		if r.PaperCycles == want {
			b.ReportMetric(r.MeasuredCycles, "cycles_per_block")
			b.ReportMetric(r.PaperCycles, "paper_cycles")
			return
		}
	}
}

func BenchmarkLoopTimes_GCM(b *testing.B)      { benchLoop(b, cryptocore.FamilyGCM, false, 49) }
func BenchmarkLoopTimes_CCM2core(b *testing.B) { benchLoop(b, cryptocore.FamilyCCM, true, 55) }
func BenchmarkLoopTimes_CCM1core(b *testing.B) { benchLoop(b, cryptocore.FamilyCCM, false, 104) }

// --- E3: Table III ----------------------------------------------------------

func BenchmarkTable3_ThisWork(b *testing.B) {
	b.ReportAllocs()
	var rows []harness.TableIIIRow
	for i := 0; i < b.N; i++ {
		rows = harness.OurTableIIIRows(8)
	}
	b.ReportMetric(rows[0].MbpsPerMHz, "GCM_Mbps_per_MHz")
	b.ReportMetric(rows[1].MbpsPerMHz, "CCM_Mbps_per_MHz")
	b.ReportMetric(float64(rows[0].Slices), "slices")
	b.ReportMetric(float64(rows[0].BRAMs), "brams")
}

func BenchmarkTable3_Baselines(b *testing.B) {
	b.ReportAllocs()
	var pipe, aziz, cm float64
	for i := 0; i < b.N; i++ {
		pipe = baseline.LemsitzerGCM.MbpsPerMHz(2048)
		aziz = baseline.AzizCCM.MbpsPerMHz()
		cm = baseline.CryptoManiac.MbpsPerMHz()
	}
	b.ReportMetric(pipe, "pipelined_GCM_Mbps_per_MHz")
	b.ReportMetric(aziz, "iterative_CCM_Mbps_per_MHz")
	b.ReportMetric(cm, "cryptomaniac_Mbps_per_MHz")
}

// --- E4: Table IV -----------------------------------------------------------

func BenchmarkTable4_Reconfiguration(b *testing.B) {
	b.ReportAllocs()
	var rows []reconfig.TableIVRow
	for i := 0; i < b.N; i++ {
		rows = reconfig.TableIV()
	}
	b.ReportMetric(rows[0].FromFlashMillis, "aes_flash_ms")
	b.ReportMetric(rows[0].FromRAMMillis, "aes_ram_ms")
	b.ReportMetric(rows[1].FromFlashMillis, "whirlpool_flash_ms")
	b.ReportMetric(rows[1].FromRAMMillis, "whirlpool_ram_ms")
	b.ReportMetric(rows[0].BitstreamKB, "aes_bitstream_kB")
	b.ReportMetric(rows[1].BitstreamKB, "whirlpool_bitstream_kB")
}

// --- E5: latency vs throughput ----------------------------------------------

func BenchmarkLatency_CCM_4x1_vs_2x2(b *testing.B) {
	b.ReportAllocs()
	var four, two harness.LatencyStats
	for i := 0; i < b.N; i++ {
		four = harness.MeasureLatency(harness.CCM4x1, 8)
		two = harness.MeasureLatency(harness.CCM2x2, 8)
	}
	b.ReportMetric(four.MeanLatencyCyc, "lat4x1_cycles")
	b.ReportMetric(two.MeanLatencyCyc, "lat2x2_cycles")
	b.ReportMetric(four.MeanLatencyCyc/two.MeanLatencyCyc, "latency_ratio")
}

// --- E8: resources ----------------------------------------------------------

func BenchmarkResources(b *testing.B) {
	b.ReportAllocs()
	var d *fpga.Design
	for i := 0; i < b.N; i++ {
		d = fpga.MCCPDesign(4)
	}
	b.ReportMetric(float64(d.Slices()), "slices")
	b.ReportMetric(float64(d.BRAMs()), "brams")
	b.ReportMetric(d.FmaxMHz(), "fmax_MHz")
}

// --- E9: scheduling policies (§VIII extension) ------------------------------

func BenchmarkSchedPolicy(b *testing.B) {
	b.ReportAllocs()
	for _, pol := range []string{"first-idle", "round-robin", "key-affinity"} {
		b.Run(pol, func(b *testing.B) {
			b.ReportAllocs()
			var res trafficgen.RunResult
			for i := 0; i < b.N; i++ {
				res = trafficgen.RunMixed(trafficgen.MixedConfig{
					Policy:     pol,
					Packets:    60,
					Channels:   6,
					Seed:       1,
					QueueDepth: true,
				})
			}
			b.ReportMetric(res.ThroughputMbps, "Mbps")
			b.ReportMetric(res.MeanLatency, "mean_latency_cycles")
			b.ReportMetric(float64(res.KeyExpansions), "key_expansions")
		})
	}
}

// --- E11: sharded cluster scaling -------------------------------------------

// BenchmarkCluster runs the mixed multi-standard workload through the
// sharded service layer at 1/2/4/8 shards — same packets, same mix, same
// seed — and reports the aggregate simulated throughput (total traffic
// over the slowest shard's virtual makespan) plus the host-side
// wall-clock figure. The acceptance bar is >= 3x aggregate Mbps from
// 1 shard to 4.
func BenchmarkCluster(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var res cluster.WorkloadResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cluster.RunWorkload(cluster.WorkloadConfig{
					Shards:        n,
					Router:        cluster.RouterLeastLoaded,
					QueueRequests: true,
					Packets:       256,
					Sessions:      16,
					Seed:          1,
					BatchWindow:   128,
					// Prefetched generation: identical packet bytes and
					// virtual-time results; generation overlaps shard
					// simulation in wall time.
					PrefetchDepth: 256,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Metrics.AggregateSimMbps, "aggregate_Mbps")
			b.ReportMetric(float64(res.Metrics.ClusterCycles), "cluster_cycles")
			b.ReportMetric(res.Metrics.HostMbps, "host_Mbps")
			b.ReportMetric(float64(res.Metrics.Packets), "packets")
		})
	}
}

// --- E12–E18: the composite experiments --------------------------------------

// benchExperiment reports one registered experiment's bench sweep: every
// point of harness.ExperimentByID(id) filed under the calling benchmark's
// name becomes a sub-benchmark that runs — and therefore times — its own
// point, and reports the point's metrics. All metrics are virtual-time
// and deterministic per seed; which ones the baseline gate holds, and how
// tightly, is benchfmt's business (see each experiment's Points).
func benchExperiment(b *testing.B, id string) {
	exp, ok := harness.ExperimentByID(id)
	if !ok {
		b.Fatalf("no experiment %s in the harness registry", id)
	}
	family := strings.TrimPrefix(b.Name(), "Benchmark") + "/"
	for _, p := range exp.Points {
		sub, ok := strings.CutPrefix(p.Name, family)
		if !ok {
			continue
		}
		b.Run(sub, func(b *testing.B) {
			b.ReportAllocs()
			var metrics []harness.Metric
			for i := 0; i < b.N; i++ {
				metrics = p.Run()
			}
			for _, m := range metrics {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}

func BenchmarkQoS_Overload(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkQoS_Drains(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkLoadCurve(b *testing.B)         { benchExperiment(b, "E13") }
func BenchmarkWireLatency(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkReconfigUnderLoad(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkFaultCurves(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkRecoveryCurves(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkStageAttribution(b *testing.B)  { benchExperiment(b, "E18") }

// --- E10: ablations ---------------------------------------------------------

// BenchmarkAblation_GHashDigits sweeps the GHASH multiplier digit width:
// the paper picked 3 bits (43 cycles); the sweep shows where GHASH would
// start limiting the 49-cycle GCM loop.
func BenchmarkAblation_GHashDigits(b *testing.B) {
	b.ReportAllocs()
	for _, d := range []int{1, 2, 3, 4, 8} {
		b.Run(fmt.Sprintf("digits=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			cyc := ghash.DigitSerialCycles(d)
			limit := float64(cyc)
			loop := 49.0
			if limit > loop {
				loop = limit // GHASH becomes the loop bound
			}
			var x bits.Block
			h := bits.BlockFromHex("66e94bd4ef8a2c3b884cfa59ca342b2e")
			for i := 0; i < b.N; i++ {
				x = ghash.MulDigitSerial(x, h, d)
			}
			_ = x
			b.ReportMetric(float64(cyc), "mul_cycles")
			b.ReportMetric(128/loop*190, "gcm_Mbps_bound")
		})
	}
}

// BenchmarkAblation_KeySizes reproduces the key-size column structure of
// Table II from the AES core latency alone.
func BenchmarkAblation_KeySizes(b *testing.B) {
	b.ReportAllocs()
	for _, ks := range []aes.KeySize{aes.Key128, aes.Key192, aes.Key256} {
		b.Run(ks.String(), func(b *testing.B) {
			b.ReportAllocs()
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = harness.TheoreticalMbps(cryptocore.FamilyGCM, harness.GCM1, ks)
			}
			b.ReportMetric(mbps, "theoretical_Mbps")
			b.ReportMetric(float64(ks.CoreCycles()), "aes_cycles")
		})
	}
}

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
