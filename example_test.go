package mccp_test

import (
	"fmt"

	"mccp/internal/cluster"
	"mccp/internal/harness"
	"mccp/internal/qos"
)

// Example_loadCurve runs the E13 open-loop workload engine: arrival
// processes scheduled in virtual time feed packets at a configured
// offered rate — regardless of device backpressure — through a bounded
// QoS shaper, so loss and latency read as functions of offered load. The
// points walk from underload through the saturation knee under the
// paper's first-idle policy and the §VIII qos-priority extension; past
// the knee the background class sheds a growing fraction while
// qos-priority holds voice at ~0% loss and a flat p99. The six rows are
// E13 registered points (`benchtables -table loadcurve` prints all
// fourteen).
func Example_loadCurve() {
	sat := harness.SaturationMbps(harness.LoadMix, 8)
	for _, policy := range []string{"first-idle", "qos-priority"} {
		for _, offered := range []float64{0.5, 1.0, 2.0} {
			p := harness.LoadPointRun(policy, offered, sat, harness.LoadCurveConfig{BackgroundPackets: 200})
			v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
			fmt.Printf("%-12s %.2fx: delivered %4.0f of %4.0f Mbps, voice loss %.2f%% p99 %4d cyc, background loss %5.2f%%\n",
				policy, offered, p.TotalDeliveredMbps, p.TotalOfferedMbps, 100*v.LossFrac, v.P99, 100*bg.LossFrac)
		}
	}

	// The same engine scales out: open-loop sources run on every shard's
	// own virtual clock, feeding per-shard shapers, so per-class loss and
	// latency stay attributable per shard.
	fmt.Println("\ncluster open-loop (2 shards, qos-priority, 1.25x offered):")
	cres, err := cluster.RunOpenLoop(cluster.OpenLoopConfig{
		Shards:          2,
		Policy:          "qos-priority",
		Offered:         1.25,
		SatMbpsPerShard: sat,
		Horizon:         500000,
		Seed:            7,
		Profiles:        harness.LoadMix,
	})
	if err != nil {
		panic(err)
	}
	for _, c := range cres.Classes {
		fmt.Printf("  %-11s offered %5.0f Mbps, delivered %5.0f Mbps, loss %5.2f%%, p99 %d cyc\n",
			c.Class, c.OfferedMbps, c.DeliveredMbps, 100*c.LossFrac, c.P99)
	}
	for s, stats := range cres.PerShard {
		voice := stats[0]
		fmt.Printf("  shard %d: voice %d/%d delivered\n", s, voice.Completed, voice.Submitted)
	}
	fmt.Printf("  voice p99 across shards (merged samples): %d cycles\n", cres.Classes[0].P99)
	// Output:
	// first-idle   0.50x: delivered  599 of  599 Mbps, voice loss 0.00% p99 3550 cyc, background loss  0.00%
	// first-idle   1.00x: delivered 1198 of 1198 Mbps, voice loss 0.00% p99 6994 cyc, background loss  0.00%
	// first-idle   2.00x: delivered 1580 of 2395 Mbps, voice loss 0.00% p99 9117 cyc, background loss 58.89%
	// qos-priority 0.50x: delivered  599 of  599 Mbps, voice loss 0.00% p99 3399 cyc, background loss  0.00%
	// qos-priority 1.00x: delivered 1198 of 1198 Mbps, voice loss 0.00% p99 5831 cyc, background loss  0.00%
	// qos-priority 2.00x: delivered 1388 of 2395 Mbps, voice loss 0.00% p99 7066 cyc, background loss 72.78%
	//
	// cluster open-loop (2 shards, qos-priority, 1.25x offered):
	//   voice       offered   324 Mbps, delivered   324 Mbps, loss  0.00%, p99 7648 cyc
	//   video       offered   498 Mbps, delivered   498 Mbps, loss  0.00%, p99 13923 cyc
	//   data        offered   529 Mbps, delivered   529 Mbps, loss  0.00%, p99 17018 cyc
	//   background  offered  1874 Mbps, delivered  1550 Mbps, loss 17.28%, p99 222429 cyc
	//   shard 0: voice 212/212 delivered
	//   shard 1: voice 204/204 delivered
	//   voice p99 across shards (merged samples): 7648 cycles
}
