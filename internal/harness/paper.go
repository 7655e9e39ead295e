package harness

import (
	"fmt"

	"mccp/internal/aes"
	"mccp/internal/baseline"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/fpga"
	"mccp/internal/ghash"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
	"mccp/internal/trafficgen"
)

// This file registers the paper's own results, E1–E11: the §VII.A loop
// bounds, Tables II–IV, the CCM latency trade-off, the area result, and
// the scheduling, ablation and cluster extensions. Each experiment's
// points are its table's rows, measured at the size its benchmark runs,
// so the table benchtables prints is the one BENCH_baseline.json pins.

// loops lists E1's rows, key size major. The 128-bit rows carry no size
// suffix: their benchmark names predate the other sizes.
var loops = func() []loop {
	var ls []loop
	for _, size := range []aes.KeySize{aes.Key128, aes.Key192, aes.Key256} {
		suffix := ""
		if size != aes.Key128 {
			suffix = fmt.Sprintf("_%d", 8*int(size))
		}
		ls = append(ls,
			loop{"LoopTimes_GCM" + suffix, cryptocore.FamilyGCM, false, size},
			loop{"LoopTimes_CCM2core" + suffix, cryptocore.FamilyCCM, true, size},
			loop{"LoopTimes_CCM1core" + suffix, cryptocore.FamilyCCM, false, size})
	}
	return ls
}()

var e1 = Experiment{
	ID: "E1", Table: "loops",
	Title: "steady-state loop times (§VII.A formulas)",
	Notes: []string{
		"(cycles_per_block differences a 128- and a 64-block packet on one core; at",
		" 128-bit keys it reads 53/65/114 against the formulas' 49/55/104)",
	},
	Points: func() []Point {
		pts := make([]Point, len(loops))
		for i, l := range loops {
			pts[i] = Point{Name: l.name, Run: func() []Metric {
				return []Metric{
					{"cycles_per_block", l.measure()},
					{"paper_cycles", TheoreticalLoopCycles(l.family, l.split, l.size)},
				}
			}}
		}
		return pts
	}(),
}

// paperTableII is Table II as printed: every cell with its theoretical
// and 2 KB-packet throughput in Mbps, key size major.
var paperTableII = []struct {
	family             cryptocore.Family
	m                  Mapping
	size               aes.KeySize
	theoretical, twoKB float64
}{
	{cryptocore.FamilyGCM, GCM1, aes.Key128, 496, 437},
	{cryptocore.FamilyGCM, GCM4x1, aes.Key128, 1984, 1748},
	{cryptocore.FamilyCCM, CCM1, aes.Key128, 233, 214},
	{cryptocore.FamilyCCM, CCM4x1, aes.Key128, 932, 856},
	{cryptocore.FamilyCCM, CCM2, aes.Key128, 442, 393},
	{cryptocore.FamilyCCM, CCM2x2, aes.Key128, 884, 786},
	{cryptocore.FamilyGCM, GCM1, aes.Key192, 426, 382},
	{cryptocore.FamilyGCM, GCM4x1, aes.Key192, 1704, 1528},
	{cryptocore.FamilyCCM, CCM1, aes.Key192, 202, 187},
	{cryptocore.FamilyCCM, CCM4x1, aes.Key192, 808, 748},
	{cryptocore.FamilyCCM, CCM2, aes.Key192, 386, 348},
	{cryptocore.FamilyCCM, CCM2x2, aes.Key192, 772, 696},
	{cryptocore.FamilyGCM, GCM1, aes.Key256, 374, 337},
	{cryptocore.FamilyGCM, GCM4x1, aes.Key256, 1496, 1348},
	{cryptocore.FamilyCCM, CCM1, aes.Key256, 178, 171},
	{cryptocore.FamilyCCM, CCM4x1, aes.Key256, 712, 684},
	{cryptocore.FamilyCCM, CCM2, aes.Key256, 342, 313},
	{cryptocore.FamilyCCM, CCM2x2, aes.Key256, 684, 626},
}

var e2 = Experiment{
	ID: "E2", Table: "2",
	Title: "Table II — MCCP encryption throughput at 190 MHz",
	Notes: []string{
		"(paper_methodology_Mbps is the paper's: single-instance end-to-end throughput",
		" x instances; system_Mbps adds crossbar and protocol contention with all",
		" instances in flight)",
	},
	Points: func() []Point {
		var pts []Point
		for _, c := range paperTableII {
			name := fmt.Sprintf("Table2_%v_%s_%d", c.family, c.m.Name, 8*int(c.size))
			pts = append(pts, Point{Name: name, Run: func() []Metric {
				system := MeasureThroughput(c.family, c.m, int(c.size), PacketBytes, 8*c.m.Streams)
				perInstance := system
				if c.m.Streams > 1 {
					single := Mapping{Name: c.m.Name, Streams: 1, Split: c.m.Split}
					perInstance = MeasureThroughput(c.family, single, int(c.size), PacketBytes, 8)
				}
				return []Metric{
					{"system_Mbps", system},
					{"paper_methodology_Mbps", perInstance * float64(c.m.Streams)},
					{"paper_theoretical_Mbps", c.theoretical},
					{"paper_2KB_Mbps", c.twoKB},
				}
			}})
		}
		return pts
	}(),
}

var e3 = Experiment{
	ID: "E3", Table: "3",
	Title: "Table III — performance comparison",
	Notes: func() []string {
		notes := []string{"(published rows, Mbps/MHz at MHz:"}
		for _, r := range baseline.PublishedRows() {
			notes = append(notes, fmt.Sprintf("   %-24s %-9s %-4s %6.2f at %3.0f", r.Implementation, r.Platform, r.Algorithm, r.MbpsPerMHz, r.FreqMHz))
		}
		return append(notes, " Table3_Baselines models three of them)")
	}(),
	Points: []Point{
		{Name: "Table3_ThisWork", Run: func() []Metric {
			d := fpga.MCCPDesign(4)
			perMHz := func(fam cryptocore.Family, m Mapping) float64 {
				return MeasureThroughput(fam, m, 16, PacketBytes, 8) / (sim.DefaultFreqHz / 1e6)
			}
			return []Metric{
				{"GCM_Mbps_per_MHz", perMHz(cryptocore.FamilyGCM, GCM4x1)},
				{"CCM_Mbps_per_MHz", perMHz(cryptocore.FamilyCCM, CCM4x1)},
				{"slices", float64(d.Slices())},
				{"brams", float64(d.BRAMs())},
				{"paper_GCM_Mbps_per_MHz", 9.91},
				{"paper_CCM_Mbps_per_MHz", 4.43},
			}
		}},
		{Name: "Table3_Baselines", Run: func() []Metric {
			return []Metric{
				{"pipelined_GCM_Mbps_per_MHz", baseline.LemsitzerGCM.MbpsPerMHz(PacketBytes)},
				{"iterative_CCM_Mbps_per_MHz", baseline.AzizCCM.MbpsPerMHz()},
				{"cryptomaniac_Mbps_per_MHz", baseline.CryptoManiac.MbpsPerMHz()},
			}
		}},
	},
}

var e4 = Experiment{
	ID: "E4", Table: "4",
	Title: "Table IV — partial reconfiguration",
	Notes: []string{"(paper: AES 351/4, 89 kB, 380/63 ms; Whirlpool 1153/4, 97 kB, 416/69 ms)"},
	Points: []Point{{Name: "Table4_Reconfiguration", Run: func() []Metric {
		rows := reconfig.TableIV()
		return []Metric{
			{"aes_flash_ms", rows[0].FromFlashMillis},
			{"aes_ram_ms", rows[0].FromRAMMillis},
			{"whirlpool_flash_ms", rows[1].FromFlashMillis},
			{"whirlpool_ram_ms", rows[1].FromRAMMillis},
			{"aes_bitstream_kB", rows[0].BitstreamKB},
			{"whirlpool_bitstream_kB", rows[1].BitstreamKB},
		}
	}}},
}

var e5 = Experiment{
	ID: "E5", Table: "latency",
	Title: "CCM latency vs throughput (§VII.A trade-off)",
	Notes: []string{"(paper: 4x1 latency is 'almost two times greater' than 2x2)"},
	Points: []Point{{Name: "Latency_CCM_4x1_vs_2x2", Run: func() []Metric {
		four, two := MeasureLatency(CCM4x1, 8), MeasureLatency(CCM2x2, 8)
		return []Metric{
			{"lat4x1_cycles", four.MeanLatencyCyc},
			{"lat2x2_cycles", two.MeanLatencyCyc},
			{"latency_ratio", four.MeanLatencyCyc / two.MeanLatencyCyc},
			{"tput4x1_Mbps", four.ThroughputMbps},
			{"tput2x2_Mbps", two.ThroughputMbps},
		}
	}}},
}

var e8 = Experiment{
	ID: "E8", Table: "resources",
	Title: "resource result (§VII.A)",
	Points: []Point{{Name: "Resources", Run: func() []Metric {
		d := fpga.MCCPDesign(4)
		return []Metric{
			{"slices", float64(d.Slices())},
			{"brams", float64(d.BRAMs())},
			{"fmax_MHz", d.FmaxMHz()},
			{"paper_slices", fpga.PaperSlices},
			{"paper_brams", fpga.PaperBRAMs},
			{"paper_fmax_MHz", fpga.PaperFrequencyMHz},
		}
	}}},
}

var e9 = Experiment{
	ID: "E9", Table: "policy",
	Title: "scheduling policies (§VIII extension)",
	Points: func() []Point {
		var pts []Point
		for _, pol := range []string{"first-idle", "round-robin", "key-affinity"} {
			pts = append(pts, Point{Name: "SchedPolicy/" + pol, Run: func() []Metric {
				r := trafficgen.RunMixed(trafficgen.MixedConfig{
					Policy: pol, Packets: 60, Channels: 6, Seed: 1, QueueDepth: true,
				})
				return []Metric{
					{"Mbps", r.ThroughputMbps},
					{"mean_latency_cycles", r.MeanLatency},
					{"key_expansions", float64(r.KeyExpansions)},
				}
			}})
		}
		return pts
	}(),
}

var e10 = Experiment{
	ID: "E10", Table: "ablation",
	Title: "design-choice ablations",
	Notes: []string{
		"(GHashDigits: the paper's 3-bit digits (43 cycles) are the narrowest that keep",
		" GHASH off the GCM loop bound; KeySizes: Table II's key-size columns from the",
		" AES core latency alone)",
	},
	Points: func() []Point {
		var pts []Point
		gcmLoop := TheoreticalLoopCycles(cryptocore.FamilyGCM, false, aes.Key128)
		for _, d := range []int{1, 2, 3, 4, 8} {
			pts = append(pts, Point{Name: fmt.Sprintf("Ablation_GHashDigits/digits=%d", d), Run: func() []Metric {
				cyc := float64(ghash.DigitSerialCycles(d))
				return []Metric{
					{"mul_cycles", cyc},
					{"gcm_Mbps_bound", 128 / max(cyc, gcmLoop) * (sim.DefaultFreqHz / 1e6)},
				}
			}})
		}
		for _, ks := range []aes.KeySize{aes.Key128, aes.Key192, aes.Key256} {
			pts = append(pts, Point{Name: "Ablation_KeySizes/" + ks.String(), Run: func() []Metric {
				return []Metric{
					{"theoretical_Mbps", TheoreticalMbps(cryptocore.FamilyGCM, GCM1, ks)},
					{"aes_cycles", float64(ks.CoreCycles())},
				}
			}})
		}
		return pts
	}(),
}

var e11 = Experiment{
	ID: "E11", Table: "cluster",
	Title: "sharded cluster scaling (mixed workload, least-loaded router)",
	Notes: []string{
		"(aggregate simulated Mbps at 190 MHz; cluster_cycles = slowest shard's virtual",
		" makespan over the same 256 packets; mccpcluster -scaling and -sweep run larger sweeps)",
	},
	Points: func() []Point {
		var pts []Point
		for _, n := range []int{1, 2, 4, 8} {
			pts = append(pts, Point{Name: fmt.Sprintf("Cluster/shards=%d", n), Run: func() []Metric {
				res, err := cluster.RunWorkload(cluster.WorkloadConfig{
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
					panic(err)
				}
				return []Metric{
					{"aggregate_Mbps", res.Metrics.AggregateSimMbps},
					{"cluster_cycles", float64(res.Metrics.ClusterCycles)},
					{"packets", float64(res.Metrics.Packets)},
				}
			}})
		}
		return pts
	}(),
}
