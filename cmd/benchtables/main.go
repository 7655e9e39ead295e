// benchtables regenerates every table and quantitative result of the
// paper's evaluation section from the simulation model and prints it next
// to the paper's published values.
//
// Usage:
//
//	benchtables                 # all tables
//	benchtables -table 2        # Table II only
//	benchtables -table loops    # §VII.A loop formulas
//	benchtables -table 3|4|latency|resources|policy|cluster|qos
//	benchtables -packets 20     # measurement length per Table II cell
package main

import (
	"flag"
	"fmt"
	"os"

	"mccp/internal/baseline"
	"mccp/internal/fpga"
	"mccp/internal/harness"
	"mccp/internal/obs"
	"mccp/internal/reconfig"
	"mccp/internal/trafficgen"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: loops, 2, 3, 4, latency, resources, policy, cluster, qos, loadcurve, wire, reconfig, faults, heal, stages, all; 'sweep' (not in 'all') runs the scale-out sweep")
	packets := flag.Int("packets", 12, "packets per Table II measurement cell")
	sweepPackets := flag.Int("sweep-packets", 65536, "total packets for -table sweep (1000000 reproduces the million-packet sweep)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("benchtables"))
		return
	}

	run := func(name string) bool { return *table == "all" || *table == name }
	any := false

	if run("loops") {
		any = true
		fmt.Println("== E1: steady-state loop times (§VII.A formulas) ==")
		fmt.Printf("%-32s %10s %10s\n", "loop", "model", "paper")
		for _, r := range harness.MeasureLoopTimes() {
			fmt.Printf("%-32s %10.2f %10.0f\n", r.Name, r.MeasuredCycles, r.PaperCycles)
		}
		fmt.Println()
	}

	if run("2") {
		any = true
		fmt.Println("== E2: Table II — MCCP encryption throughput at 190 MHz ==")
		fmt.Print(harness.FormatTableII(harness.TableII(*packets)))
		fmt.Println("(\"2KB(model)\" follows the paper's methodology: single-instance")
		fmt.Println(" end-to-end throughput x instances; \"system\" adds crossbar and")
		fmt.Println(" protocol contention with all instances in flight.)")
		fmt.Println()
	}

	if run("3") {
		any = true
		fmt.Println("== E3: Table III — performance comparison ==")
		fmt.Printf("%-24s %-10s %-16s %-8s %10s %8s %8s %6s\n",
			"implementation", "platform", "programmable", "alg", "Mbps/MHz", "MHz", "slices", "BRAM")
		for _, r := range baseline.PublishedRows() {
			prog := "No"
			if r.Programmable {
				prog = "Yes"
			}
			slices := "-"
			if r.Slices > 0 {
				slices = fmt.Sprintf("%d", r.Slices)
			}
			brams := "-"
			if r.BRAMs > 0 {
				brams = fmt.Sprintf("(%d)", r.BRAMs)
			}
			fmt.Printf("%-24s %-10s %-16s %-8s %10.2f %8.0f %8s %6s\n",
				r.Implementation, r.Platform, prog, r.Algorithm, r.MbpsPerMHz, r.FreqMHz, slices, brams)
		}
		for _, r := range harness.OurTableIIIRows(*packets) {
			fmt.Printf("%-24s %-10s %-16s %-8s %10.2f %8.0f %8d %6s\n",
				r.Implementation, r.Platform, r.Programmable, r.Algorithm,
				r.MbpsPerMHz, r.FreqMHz, r.Slices, fmt.Sprintf("(%d)", r.BRAMs))
		}
		fmt.Printf("(paper's row: 9.91 / 4.43 Mbps/MHz, 190 MHz, 4084 slices (26))\n\n")
	}

	if run("4") {
		any = true
		fmt.Println("== E4: Table IV — partial reconfiguration ==")
		fmt.Printf("%-12s %8s %6s %14s %12s %10s\n",
			"core", "slices", "BRAM", "bitstream kB", "flash ms", "RAM ms")
		for _, r := range reconfig.TableIV() {
			fmt.Printf("%-12s %8d %6d %14.0f %12.0f %10.0f\n",
				r.Core, r.Slices, r.BRAMs, r.BitstreamKB, r.FromFlashMillis, r.FromRAMMillis)
		}
		fmt.Println("(paper: AES 351/4, 89 kB, 380/63 ms; Whirlpool 1153/4, 97 kB, 416/69 ms)")
		fmt.Println()
	}

	if run("latency") {
		any = true
		fmt.Println("== E5: CCM latency vs throughput (§VII.A trade-off) ==")
		four := harness.MeasureLatency(harness.CCM4x1, 3*4)
		two := harness.MeasureLatency(harness.CCM2x2, 3*2)
		fmt.Printf("%-10s %12s %16s %14s\n", "mapping", "Mbps", "mean lat (cyc)", "max lat (cyc)")
		for _, s := range []harness.LatencyStats{four, two} {
			fmt.Printf("%-10s %12.0f %16.0f %14d\n", s.Mapping, s.ThroughputMbps, s.MeanLatencyCyc, s.MaxLatencyCyc)
		}
		fmt.Printf("latency ratio 4x1/2x2 = %.2f (paper: 'almost two times greater')\n\n",
			four.MeanLatencyCyc/two.MeanLatencyCyc)
	}

	if run("resources") {
		any = true
		fmt.Println("== E8: resource result (§VII.A) ==")
		d := fpga.MCCPDesign(4)
		fmt.Printf("4-core MCCP: %d slices, %d BRAMs, Fmax %.0f MHz (paper: 4084 slices, 26 BRAMs, 190 MHz)\n",
			d.Slices(), d.BRAMs(), d.FmaxMHz())
		fmt.Printf("core-count sweep:")
		for n := 1; n <= 8; n++ {
			dn := fpga.MCCPDesign(n)
			fmt.Printf("  %d:%d", n, dn.Slices())
		}
		fmt.Println(" (slices)")
		fmt.Println()
	}

	if run("policy") {
		any = true
		fmt.Println("== E9: scheduling policies (§VIII extension) ==")
		fmt.Printf("%-14s %10s %14s %16s\n", "policy", "Mbps", "key expans.", "mean lat (cyc)")
		for _, pol := range []string{"first-idle", "round-robin", "key-affinity"} {
			r := trafficgen.RunMixed(trafficgen.MixedConfig{
				Policy: pol, Packets: 80, Channels: 6, Seed: 1, QueueDepth: true,
			})
			fmt.Printf("%-14s %10.0f %14d %16.0f\n", pol, r.ThroughputMbps, r.KeyExpansions, r.MeanLatency)
		}
		fmt.Println()
	}

	if run("cluster") {
		any = true
		fmt.Println("== E11: sharded cluster scaling (mixed workload, least-loaded router) ==")
		fmt.Print(harness.FormatClusterScaling(harness.ClusterScaling(16 * *packets)))
		fmt.Println("(aggregate simulated Mbps at 190 MHz; cluster cycles = slowest shard's")
		fmt.Println(" virtual makespan over the same total workload)")
		fmt.Println()
	}

	// The sweep is opt-in (not part of "all"): at a million packets it runs
	// minutes, not seconds.
	if *table == "sweep" {
		any = true
		n := *sweepPackets
		fmt.Printf("== E11b: scale-out sweep (%d packets, per-shard parallel generation) ==\n", n)
		fmt.Print(harness.FormatClusterScaling(harness.ClusterSweep(n)))
		fmt.Println("(per-session generators grouped per shard; a million packets is the")
		fmt.Println(" headline configuration — see -sweep-packets)")
		fmt.Println()
	}

	// The composite experiments come from the harness registry, which owns
	// each one's table name, constructor, headline and interpretation notes.
	for _, exp := range harness.Experiments {
		if !run(exp.Table) {
			continue
		}
		any = true
		fmt.Printf("== %s: %s ==\n", exp.ID, exp.Title)
		fmt.Print(exp.Run(*packets))
		for _, note := range exp.Notes {
			fmt.Println(note)
		}
		fmt.Println()
	}

	if !any {
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
}
