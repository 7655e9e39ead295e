package main

// metricDef is one metric as BENCHMARK.json declares it; bench_test.go
// requires the two lists below and that file to agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced runs on every workload. README.md says what each means where.
// The bounds are three times the widest quartile spread seen over ten seeds
// on the two-CPU sandbox in its noisier hours (4.9% on cluster-mix, which
// keeps both CPUs busy), rounded up; allocation counts barely move at all.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_pkts_per_s", "packets/s", "higher", 0.15},
	{"host_mbps", "Mbit/s", "higher", 0.15},
	{"cpu_us_per_pkt", "us", "lower", 0.15},
	{"allocs_per_pkt", "allocs", "lower", 0.02},
	{"alloc_bytes_per_pkt", "B", "lower", 0.05},
	{"wall_p50_us", "us", "lower", 0.15},
	{"wall_p90_us", "us", "lower", 0.20},
}

// perLayer are the metrics of single layers, reported by the traced runs.
// A layer that a workload does not run, or that cannot be observed from
// outside on it, reads 0 there.
var perLayer = []metricDef{
	{"sim.events_per_pkt", "count", "lower", 0},
	{"sim.step_ns_per_event", "ns", "lower", 0},
	{"sim.rung_events_per_s", "1/s", "higher", 0},
	{"sim.rung_fifo_words_per_s", "1/s", "higher", 0},
	{"sim.share", "ratio", "lower", 0},
	{"picoblaze.instr_per_pkt", "count", "lower", 0},
	{"picoblaze.rung_instr_per_s", "1/s", "higher", 0},
	{"picoblaze.share", "ratio", "lower", 0},
	{"cryptounit.issues_per_pkt", "count", "lower", 0},
	{"cryptounit.rung_issues_per_s", "1/s", "higher", 0},
	{"cryptounit.share", "ratio", "lower", 0},
	{"aes.blocks_per_pkt", "count", "lower", 0},
	{"aes.rung_ns_per_block", "ns", "lower", 0},
	{"aes.share", "ratio", "lower", 0},
	{"ghash.muls_per_pkt", "count", "lower", 0},
	{"ghash.rung_ns_per_mul", "ns", "lower", 0},
	{"ghash.share", "ratio", "lower", 0},
	{"crossbar.grants_per_pkt", "count", "lower", 0},
	{"crossbar.busy_frac", "ratio", "lower", 0},
	{"crossbar.rung_words_per_s", "1/s", "higher", 0},
	{"keysched.expansions_per_pkt", "count", "lower", 0},
	{"core.busy_frac", "ratio", "higher", 0},
	{"core.queued_per_pkt", "count", "lower", 0},
	{"core.sim_cycles_per_pkt", "cycles", "lower", 0},
	{"core.sim_mbps", "Mbit/s", "higher", 0},
	{"core.sim_err_pct", "%", "lower", 0},
	{"radio.submit_ns_per_pkt", "ns", "lower", 0},
	{"radio.rung_frame_ns.64", "ns", "lower", 0},
	{"radio.rung_frame_ns.2048", "ns", "lower", 0},
	{"qos.rung_ns_per_pkt.strict-priority", "ns", "lower", 0},
	{"qos.rung_ns_per_pkt.weighted-fair", "ns", "lower", 0},
	{"qos.rung_ns_per_pkt.drr-bytes", "ns", "lower", 0},
	{"qos.shed_per_kpkt", "count", "lower", 0},
	{"qos.voice_p99_cycles", "cycles", "lower", 0},
	{"arrivals.rung_gaps_per_s.poisson", "1/s", "higher", 0},
	{"arrivals.rung_gaps_per_s.onoff", "1/s", "higher", 0},
	{"cluster.window_ns_per_pkt", "ns", "lower", 0},
	{"cluster.cores_busy", "ratio", "higher", 0},
	{"cluster.scale_eff", "ratio", "higher", 0},
	{"cluster.rung_pkts_per_s.1shard", "1/s", "higher", 0},
	{"cluster.batches_per_kpkt", "count", "lower", 0},
	{"cluster.new_ms", "ms", "lower", 0},
	{"cluster.new_allocs", "count", "lower", 0},
	{"cluster.open_us", "us", "lower", 0},
	{"obs.stage.queue_cycles", "cycles", "lower", 0},
	{"obs.stage.sched_cycles", "cycles", "lower", 0},
	{"obs.stage.xbar_up_cycles", "cycles", "lower", 0},
	{"obs.stage.core_cycles", "cycles", "lower", 0},
	{"obs.stage.drain_cycles", "cycles", "lower", 0},
	{"obs.stage_gap_cycles", "cycles", "lower", 0},
	{"obs.trace_on_overhead_pct", "%", "lower", 0},
	{"server.encode_us", "us", "lower", 0},
	{"server.transport_us", "us", "lower", 0},
	{"server.batch_wait_us", "us", "lower", 0},
	{"server.service_us", "us", "lower", 0},
	{"server.tiling_gap_ns", "ns", "lower", 0},
	{"server.rtt_p99_us", "us", "lower", 0},
	{"server.late_p99_us", "us", "lower", 0},
	{"server.achieved_req_per_s", "1/s", "higher", 0},
	{"server.open_us_per_session", "us", "lower", 0},
	{"server.rung_encode_ns_per_frame.64", "ns", "lower", 0},
	{"server.rung_encode_ns_per_frame.2048", "ns", "lower", 0},
	{"server.rung_decode_ns_per_frame", "ns", "lower", 0},
	{"server.rung_loopback_req_per_s", "1/s", "higher", 0},
	{"server.tcp_share", "ratio", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.gen_allocs_per_pkt", "count", "lower", 0},
}

func wireWorkload(open bool) func(env, *repetition) (instance, error) {
	return func(e env, rep *repetition) (instance, error) { return setupWire(e, rep, open) }
}

// workloads, chosen so that every pair of factors that changes behaviour —
// packet size, cipher family, session lifetime, transport, open or closed
// loop — is covered at least once without running the cross product.
var workloads = []workload{
	{
		name:          "device-bulk",
		why:           "one device, 2 KB GCM then CCM 4x1 as in Table II: per-block cost dominates and nothing above the device runs, so a block-kernel gain shows here and a cluster or server change must not",
		deterministic: true,
		setup:         setupDeviceBulk,
	},
	{
		name:          "device-churn",
		why:           "same device, open/4x(64 B encrypt+decrypt)/close over 48 rotating keys: per-packet and per-session cost, key caches missing; a memo that helps bulk but taxes open/close or decrypt loses here",
		deterministic: true,
		setup:         setupDeviceChurn,
	},
	{
		name:          "cluster-mix",
		why:           "2-shard shaped cluster, Poisson four-class mix at a fixed 2000 Mbps offered: the only workload where shard goroutines, rings, router, shaper and arrivals do the work and both cores can be busy",
		deterministic: true,
		setup:         setupClusterMix,
	},
	{
		name:  "wire-sat",
		why:   "mccpserver's stack over loopback TCP, closed loop of 32 pipelined 64 B ENCRYPTs + FLUSH on 2 connections: smallest packets, so per-frame cost is the largest share it can be; the service's capacity",
		setup: wireWorkload(false),
	},
	{
		name:  "wire-open",
		why:   "same server and sockets, open loop at a fixed 20000 req/s, a third of capacity: latency is batching wait and wake-ups, so throughput bought with bigger batches or longer flush timers is paid for here",
		setup: wireWorkload(true),
	},
}
