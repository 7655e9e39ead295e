// mccpsim runs ad-hoc simulations of the MCCP and describes the modeled
// architecture.
//
// Usage:
//
//	mccpsim -describe                   # architecture summary (Fig. 1-3)
//	mccpsim -cores 4 -family gcm -key 16 -packets 20 -size 2048
//	mccpsim -mixed -packets 100         # mixed multi-standard traffic
//	mccpsim -arrivals poisson -offered 0.8   # one open-loop load point
//
// The E12 and E13 tables are benchtables -table qos|loadcurve.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mccp/internal/arrivals"
	"mccp/internal/cryptocore"
	"mccp/internal/firmware"
	"mccp/internal/fpga"
	"mccp/internal/harness"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/scheduler"
	"mccp/internal/trafficgen"
)

func main() {
	describe := flag.Bool("describe", false, "print the modeled architecture")
	mixed := flag.Bool("mixed", false, "run a mixed multi-standard workload")
	cores := flag.Int("cores", 4, "number of cryptographic cores")
	family := flag.String("family", "gcm", "gcm, ccm, ccm2 (two-core split)")
	keyLen := flag.Int("key", 16, "key bytes: 16, 24 or 32")
	packets := flag.Int("packets", 20, "packets to run")
	size := flag.Int("size", 2048, "payload bytes per packet")
	streams := flag.Int("streams", 1, "packets kept in flight")
	policy := flag.String("policy", "first-idle", "dispatch policy (mixed / open-loop mode)")
	arrivalsProc := flag.String("arrivals", "", "open-loop arrival process: "+
		strings.Join(arrivals.Names(), ", ")+" (runs one E13 load point)")
	offered := flag.Float64("offered", 1.0, "offered load as a fraction of saturation (open-loop mode)")
	drain := flag.String("drain", "", "shaper drain policy for the open-loop mode: "+
		strings.Join(qos.DrainNames(), ", "))
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("mccpsim"))
		return
	}

	// Validate user-facing names up front: a typo should produce a flag
	// error, not a panic (or a silent fallback) deep in the model.
	if _, err := scheduler.ByName(*policy); err != nil {
		log.Fatalf("-policy: %v", err)
	}
	if *drain != "" {
		if _, err := qos.DrainByName(*drain); err != nil {
			log.Fatalf("-drain: %v", err)
		}
	}
	if *arrivalsProc != "" {
		if _, err := arrivals.ByName(*arrivalsProc, 1); err != nil {
			log.Fatalf("-arrivals: %v", err)
		}
	}

	if *arrivalsProc != "" && flagTouched("cores") && *cores != 4 {
		log.Fatalf("-cores: the open-loop mode (-arrivals) models the paper's fixed 4-core device; -cores is not applied there")
	}

	switch {
	case *describe:
		printArchitecture()
	case *arrivalsProc != "":
		cfg := harness.LoadCurveConfig{Process: *arrivalsProc, Drain: *drain}
		sat := harness.SaturationMbps(harness.LoadMix, 8)
		point := harness.LoadPointRun(*policy, *offered, sat, cfg)
		fmt.Printf("open-loop %s arrivals at %.2fx saturation (%.0f Mbps), policy %s:\n",
			*arrivalsProc, *offered, sat, *policy)
		qos.WriteClassCells(os.Stdout, point.Classes)
		fmt.Printf("total: offered %.0f Mbps, delivered %.0f Mbps, loss %.2f%%\n",
			point.TotalOfferedMbps, point.TotalDeliveredMbps, 100*point.TotalLossFrac)
	case *mixed:
		r := trafficgen.RunMixed(trafficgen.MixedConfig{
			Policy: *policy, Packets: *packets, Channels: 6, Seed: 1,
			QueueDepth: true, Cores: *cores,
		})
		fmt.Printf("mixed traffic, %d packets, policy %s:\n", *packets, *policy)
		fmt.Printf("  throughput     %8.0f Mbps\n", r.ThroughputMbps)
		fmt.Printf("  mean latency   %8.0f cycles (%.1f µs)\n", r.MeanLatency, r.MeanLatency/190)
		fmt.Printf("  key expansions %8d\n", r.KeyExpansions)
	default:
		var fam cryptocore.Family
		m := harness.Mapping{Name: "custom", Streams: *streams}
		switch *family {
		case "gcm":
			fam = cryptocore.FamilyGCM
		case "ccm":
			fam = cryptocore.FamilyCCM
		case "ccm2":
			fam = cryptocore.FamilyCCM
			m.Split = true
		default:
			log.Fatalf("unknown family %q", *family)
		}
		mbps := harness.MeasureThroughput(fam, m, *keyLen, *size, *packets)
		fmt.Printf("%s AES-%d, %d x %d-byte packets, %d stream(s): %.0f Mbps at 190 MHz\n",
			*family, *keyLen*8, *packets, *size, *streams, mbps)
	}
	_ = os.Stdout
}

// flagTouched reports whether a flag was passed explicitly.
func flagTouched(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func printArchitecture() {
	d := fpga.MCCPDesign(4)
	fmt.Println(`MCCP — reconfigurable Multi-Core Crypto-Processor (Grand et al., IPDPS 2011)

  communication controller              main controller
        |  32-bit data (Cross Bar)            | key writes
        |  32-bit instr / 8-bit return        v
  +-----v--------------------------------- Key Memory ----+
  |  Task Scheduler (8-bit controller)  Key Scheduler     |
  |      |  start/done, params             | round keys   |
  |  +---v----+  +--------+  +--------+  +-v------+       |
  |  | Core 0 |==| Core 1 |  | Core 2 |==| Core 3 |       |
  |  +--------+  +--------+  +--------+  +--------+       |
  |   each core: 8-bit PicoBlaze controller (2 cyc/instr) |
  |              Cryptographic Unit: 4x128-bit bank,      |
  |                AES core (44/52/60 cyc) [reconfig.]    |
  |                GHASH core (3-bit digits, 43 cyc)      |
  |                XOR/mask, INC16, EQU, FIFO I/O         |
  |              2x 512x32-bit packet FIFOs               |
  |              Key Cache (4 contexts)                   |
  |   == : paired inter-core shift registers (2-core CCM) |
  +--------------------------------------------------------+`)
	fmt.Printf("\nresource model: %d slices, %d BRAMs, Fmax %.0f MHz (paper: 4084 / 26 / 190)\n",
		d.Slices(), d.BRAMs(), d.FmaxMHz())
	fmt.Printf("firmware: AES image %d words, hash image %d words (1024-word imem)\n",
		firmware.ImageAESWords(), firmware.ImageHashWords())
}
