// mccpcluster drives the sharded multi-MCCP service layer: N independent
// simulated devices behind one routing/batching front end, fed a mixed
// multi-standard workload from the deterministic traffic generator.
//
// Usage:
//
//	mccpcluster -shards 4 -router least-loaded -packets 256
//	mccpcluster -shards 2 -router family-affinity -whirlpool 1
//	mccpcluster -scaling                # 1 -> 2 -> 4 -> 8 shard sweep
//	mccpcluster -mix umts-voice,wimax-gcm -sessions 8 -policy key-affinity
//	mccpcluster -qos                    # QoS preset: qos-aware router,
//	                                    # qos-priority shards, all-class mix
//	mccpcluster -arrivals poisson -offered 1.2 -shards 4
//	                                    # open-loop arrivals into per-shard
//	                                    # shapers: per-class loss/latency
//	                                    # attributable per shard
//	mccpcluster -faults crashes=1 -offered 0.9
//	                                    # fault drill: a seeded schedule
//	                                    # crashes shards mid-window; the
//	                                    # heal controller quarantines,
//	                                    # re-homes voice-first, browns out
//	mccpcluster -heal -restart-src icap -offered 0.9
//	                                    # same drill with the restart loop
//	                                    # closed: rebuild, rejoin, lift
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"mccp"
	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/faults"
	"mccp/internal/fleet"
	"mccp/internal/harness"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/scheduler"
	"mccp/internal/sim"
	"mccp/internal/trafficgen"
)

// withMetrics (the -metrics flag) appends the metrics-registry
// exposition to every mode's exit report.
var withMetrics bool

// exitReport prints the one cluster exit report every mode ends with:
// the snapshot text, plus the registry metrics when -metrics is set.
// Deduplicating the per-mode Snapshot().Format() prints behind the obs
// renderer keeps the CLI report and the server's /metrics endpoint on
// the same read path.
func exitReport(cl *cluster.Cluster) {
	var reg *obs.Registry
	if withMetrics {
		reg = obs.NewRegistry()
		cl.RegisterMetrics(reg)
		cl.ObserveClassLatencies(reg)
		obs.RegisterBuildInfo(reg, "mccpcluster")
	}
	obs.WriteReport(os.Stdout, cl.Snapshot(), reg)
}

func main() {
	shards := flag.Int("shards", 4, "number of MCCP shards")
	cores := flag.Int("cores", 4, "cryptographic cores per shard")
	router := flag.String("router", cluster.RouterLeastLoaded,
		"session routing policy: "+strings.Join(cluster.RouterNames(), ", "))
	policy := flag.String("policy", "first-idle",
		"per-shard dispatch policy: "+strings.Join(scheduler.Names(), ", "))
	packets := flag.Int("packets", 256, "total packets to push through")
	sessions := flag.Int("sessions", 0, "sessions cycled over the mix (0 = 4 per shard)")
	mix := flag.String("mix", "", "comma-separated standards (default full mix: "+
		strings.Join(trafficgen.StandardNames(), ", ")+")")
	batch := flag.Int("batch", 64, "operations coalesced per dispatch batch")
	window := flag.Int("window", 0, "packets in flight per shard (0 = 2x cores, or 1x with -queue=false; above the core count with -queue=false demonstrates error-flag rejects)")
	queue := flag.Bool("queue", true, "enable the QoS queueing extension on every shard")
	maxQueue := flag.Int("max-queue", 0, "bound each shard's request queue (0 = unbounded; overflow is shed)")
	qosPreset := flag.Bool("qos", false, "QoS preset: qos-aware router, qos-priority shard policy, all-class mix")
	seed := flag.Int64("seed", 1, "deterministic workload seed")
	scaling := flag.Bool("scaling", false, "sweep 1/2/4/8 shards over the same workload")
	whirlpool := flag.Int("whirlpool", -1, "reconfigure one core of this shard to Whirlpool before the run")
	scaleTo := flag.Int("scale", 0, "fleet demo: scale the serving set to this many shards (drain voice-first, re-home, report)")
	rollingSrc := flag.String("rolling-swap", "", "fleet demo: rolling Whirlpool swap across every shard from this bitstream source (compact-flash, ram, icap)")
	arrivalsProc := flag.String("arrivals", "", "open-loop mode: arrival process ("+
		strings.Join(arrivals.Names(), ", ")+") feeding per-shard QoS shapers")
	offered := flag.Float64("offered", 1.0, "offered load per shard as a fraction of saturation (open-loop mode)")
	drain := flag.String("drain", "", "per-shard shaper drain policy: "+strings.Join(qos.DrainNames(), ", "))
	weightsFlag := flag.String("weights", "", "weighted-drain service ratio as voice,video,data,background (e.g. 8,4,2,1)")
	horizon := flag.Uint64("horizon", 1000000, "open-loop measurement window in cycles per shard")
	faultsSpec := flag.String("faults", "", "fault drill: schedule spec crashes=N[,stalls=N][,window=K] — seeded shard faults applied to an open-loop run (churn is the load generator's side: mccploadgen -churn)")
	windows := flag.Int("windows", 12, "measurement windows for the fault drill")
	heal := flag.Bool("heal", false, "self-healing drill: crash one shard under open-loop load, fail over and brown out, then restart it from -restart-src, rebalance voice-first back and lift the brownout (composes with -offered/-windows/-horizon/-seed)")
	restartSrc := flag.String("restart-src", "icap", "bitstream source for -heal restarts: compact-flash, ram, icap (icap is the only source whose full-shard reload fits a few default windows; ram needs ~49, compact-flash ~290)")
	flag.BoolVar(&withMetrics, "metrics", false, "append the metrics-registry exposition to the exit report")
	traceOut := flag.String("trace-out", "", "open-loop mode: write lifecycle spans to this file (CSV; JSONL with a .jsonl suffix)")
	traceSample := flag.Float64("trace-sample", 1, "fraction of packets traced by -trace-out (seeded, deterministic; 1 = all)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("mccpcluster"))
		return
	}

	// Validate-and-error instead of panicking deep in the stack: bad CLI
	// flags should read like flag mistakes, not crashes.
	if _, err := cluster.RouterByName(*router); err != nil {
		log.Fatalf("-router: %v", err)
	}
	if _, err := mccp.ParsePolicy(*policy); err != nil {
		log.Fatalf("-policy: %v", err)
	}
	var stds []trafficgen.Standard
	if *mix != "" {
		var err error
		stds, err = trafficgen.StandardsByName(strings.Split(*mix, ","))
		if err != nil {
			log.Fatalf("-mix: %v", err)
		}
	}
	if *qosPreset {
		// The preset only fills defaults: explicit flags win.
		if !flagSet("router") {
			*router = cluster.RouterQoSAware
		}
		if !flagSet("policy") {
			*policy = "qos-priority"
		}
		if len(stds) == 0 {
			stds = trafficgen.QoSMix
		}
	}
	if *drain != "" {
		if _, err := qos.DrainByName(*drain); err != nil {
			log.Fatalf("-drain: %v", err)
		}
	}
	weights, err := parseWeights(*weightsFlag)
	if err != nil {
		log.Fatalf("-weights: %v", err)
	}

	if *heal || *faultsSpec != "" {
		// -heal is the fault drill with the restart loop closed; alone it
		// crashes one shard.
		spec, src := *faultsSpec, reconfig.Source{}
		if spec == "" {
			spec = "crashes=1"
		}
		if *heal {
			if src, err = reconfig.SourceByName(*restartSrc); err != nil {
				log.Fatalf("-restart-src: %v", err)
			}
		}
		runDrill(spec, src, *shards, *cores, *router, *policy,
			*offered, *windows, sim.Time(*horizon), uint64(*seed))
		return
	}

	if *arrivalsProc != "" {
		if _, err := arrivals.ByName(*arrivalsProc, 1); err != nil {
			log.Fatalf("-arrivals: %v", err)
		}
		runOpenLoop(*shards, *cores, *router, *policy, *arrivalsProc, *drain,
			weights, *offered, *horizon, uint64(*seed), *traceOut, *traceSample)
		return
	}

	cfg := cluster.WorkloadConfig{
		Shards:        *shards,
		CoresPerShard: *cores,
		Router:        *router,
		Policy:        *policy,
		QueueRequests: *queue,
		MaxQueue:      *maxQueue,
		Packets:       *packets,
		Sessions:      *sessions,
		Mix:           stds,
		Seed:          *seed,
		BatchWindow:   *batch,
		ShardWindow:   *window,
	}

	if *scaling {
		// Same packets, mix and seed on every row — only the shard count
		// varies, so the session count is pinned to the widest row's.
		if cfg.Sessions <= 0 {
			cfg.Sessions = 4 * 8
		}
		fmt.Printf("shard scaling, %d packets of the mixed workload (router %s):\n", *packets, *router)
		fmt.Printf("%-8s %14s %14s %10s %12s\n", "shards", "aggregate Mbps", "cluster cycles", "speedup", "host Mbps")
		var base float64 // the first row's aggregate Mbps
		for i, n := range []int{1, 2, 4, 8} {
			cfg.Shards = n
			res, err := cluster.RunWorkload(cfg)
			if err != nil {
				log.Fatal(err)
			}
			m := res.Metrics
			speedup := 1.0
			if i == 0 {
				base = m.AggregateSimMbps
			} else if base > 0 {
				speedup = m.AggregateSimMbps / base
			}
			fmt.Printf("%-8d %14.0f %14d %9.2fx %12.0f\n",
				n, m.AggregateSimMbps, uint64(m.ClusterCycles), speedup, m.HostMbps)
		}
		return
	}

	if *scaleTo > 0 || *rollingSrc != "" {
		runFleet(cfg, *scaleTo, *rollingSrc)
		return
	}

	if *whirlpool >= 0 {
		runWithReconfig(cfg, *whirlpool)
		return
	}

	res, err := cluster.RunWorkload(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d shards x %d cores, router %s, policy %s, %d packets:\n",
		len(res.Metrics.Shards), *cores, *router, *policy, *packets)
	obs.WriteReport(os.Stdout, res.Metrics, nil)
	for _, c := range qos.Classes() {
		if res.ClassPackets[c] > 0 {
			fmt.Printf("class %-11s %6d packets %10d bytes\n", c, res.ClassPackets[c], res.ClassBytes[c])
		}
	}
	fmt.Printf("per-shard output digests (determinism check): %x\n", res.ShardDigests)
	if res.Errors > 0 {
		fmt.Printf("failed packets (error flag or shed): %d\n", res.Errors)
	}
}

// parseWeights parses a voice,video,data,background ratio (display
// order) into the qos.Weights class indexing.
func parseWeights(s string) (qos.Weights, error) {
	var w qos.Weights
	if s == "" {
		return w, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != qos.NumClasses {
		return w, fmt.Errorf("want %d comma-separated weights (voice,video,data,background)", qos.NumClasses)
	}
	order := []qos.Class{qos.Voice, qos.Video, qos.Data, qos.Background}
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return w, fmt.Errorf("bad weight %q (want a positive integer)", p)
		}
		w[order[i]] = n
	}
	return w, nil
}

// runOpenLoop is the cluster open-loop mode: arrival sources on every
// shard's own engine feed its shaper at the configured offered rate, and
// the report shows per-class loss/latency attributable per shard.
func runOpenLoop(shards, cores int, router, policy, proc, drain string,
	weights qos.Weights, offered float64, horizon, seed uint64,
	traceOut string, traceSample float64) {
	sat := satPerShard(cores)
	res, err := cluster.RunOpenLoop(cluster.OpenLoopConfig{
		Shards:          shards,
		CoresPerShard:   cores,
		Router:          router,
		Policy:          policy,
		Process:         proc,
		Drain:           drain,
		Weights:         weights,
		Offered:         offered,
		SatMbpsPerShard: sat,
		Horizon:         sim.Time(horizon),
		Seed:            seed,
		Profiles:        harness.LoadMix,
		Trace: obs.TraceConfig{
			Enabled: traceOut != "",
			Sample:  traceSample,
			Seed:    seed,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("open-loop %s arrivals, %d shards x %d cores, %.2fx of ~%.0f Mbps per shard, policy %s:\n",
		proc, shards, cores, offered, sat, policy)
	qos.WriteClassCells(os.Stdout, res.Classes)
	fmt.Printf("per-shard attribution (submitted/completed/shed per class, voice first):\n")
	for s, stats := range res.PerShard {
		fmt.Printf("  shard %d:", s)
		for _, cs := range stats {
			fmt.Printf("  %s %d/%d/%d", cs.Class, cs.Submitted, cs.Completed, cs.Shed)
		}
		fmt.Printf("  (%d cycles)\n", res.ShardCycles[s])
	}
	fmt.Printf("arrival digests (determinism check): %x\n", res.ArrivalDigests)
	if res.Errors > 0 {
		fmt.Printf("hard errors: %d\n", res.Errors)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Fatalf("-trace-out: %v", err)
		}
		defer f.Close()
		if strings.HasSuffix(traceOut, ".jsonl") {
			err = obs.WriteSpansJSONL(f, res.Spans)
		} else {
			err = obs.WriteSpansCSV(f, res.Spans)
		}
		if err != nil {
			log.Fatalf("-trace-out: %v", err)
		}
		fmt.Printf("trace: %d spans to %s (digest %x)\n", len(res.Spans), traceOut, res.TraceDigest)
	}
}

// parseFaultSpec parses the -faults schedule spec (crashes=N, stalls=N,
// window=K, comma-separated) into a plan config.
func parseFaultSpec(spec string, shards, windows int, windowCycles sim.Time, seed uint64) (faults.PlanConfig, error) {
	cfg := faults.PlanConfig{
		Seed:         seed,
		Shards:       shards,
		Windows:      windows,
		FaultWindow:  windows / 3,
		StallCycles:  windowCycles / 2,
		WindowCycles: windowCycles,
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("bad spec entry %q (want key=value)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 0 {
			return cfg, fmt.Errorf("bad value in %q (want a non-negative integer)", part)
		}
		switch kv[0] {
		case "crashes":
			cfg.Crashes = n
		case "stalls":
			cfg.Stalls = n
		case "window":
			cfg.FaultWindow = n
		default:
			return cfg, fmt.Errorf("unknown spec key %q (crashes, stalls, window)", kv[0])
		}
	}
	return cfg, nil
}

// satPerShard is one shard's E13-calibrated saturation throughput. The
// calibration runs on the paper's 4-core device; per-core throughput is
// flat across the 4x1 mapping, so it scales linearly to keep the
// "fraction of saturation" axis honest for other sizes.
func satPerShard(cores int) float64 {
	sat := harness.SaturationMbps(harness.LoadMix, 8)
	if cores > 0 && cores != 4 {
		sat *= float64(cores) / 4
	}
	return sat
}

// runDrill is the fault and self-healing drill: a seeded schedule crashes
// and stalls shards mid-window under open-loop load while the heal
// controller — the same fleet.Controller the wire server runs and E16/E17
// gate — closes every window: heartbeat detection, voice-first fail-over,
// brownout to the surviving capacity and, with a restart source (-heal),
// rebuild, rejoin, rebalance back and a measured-load-gated lift one
// class per boundary. Every number printed is deterministic in (flags,
// seed).
func runDrill(spec string, src reconfig.Source, shards, cores int, router, policy string,
	offered float64, windows int, windowCycles sim.Time, seed uint64) {
	planCfg, err := parseFaultSpec(spec, shards, windows, windowCycles, seed)
	if err != nil {
		log.Fatalf("-faults: %v", err)
	}
	sched, err := faults.Plan(planCfg)
	if err != nil {
		log.Fatalf("-faults: %v", err)
	}
	sat := satPerShard(cores)
	pol := fleet.HealPolicy{
		Schedule:        sched,
		OfferedMbps:     offered * sat * float64(shards),
		SatMbpsPerShard: sat,
		Shares:          arrivals.ClassShares(harness.LoadMix),
		RestartSource:   src,
		WindowCycles:    windowCycles,
	}

	cl, err := cluster.New(cluster.Config{
		Shards:        shards,
		CoresPerShard: cores,
		Router:        router,
		Policy:        policy,
		QueueRequests: true,
		Seed:          seed,
		Shape:         true,
		Shaper:        qos.Config{Capacity: 2 * max(cores, 1), QueueDepth: 32},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	runner, err := cluster.NewOpenLoopRunner(cl, cluster.OpenLoopRunnerConfig{
		Profiles:    harness.LoadMix,
		OfferedMbps: pol.OfferedMbps,
		Seed:        seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer runner.Close()
	ctl := fleet.NewController(cl, pol)

	name, restart := "fault", ""
	if src.BytesPerSec > 0 {
		name = "self-healing"
		restart = fmt.Sprintf("; restart from %s takes %d cycles (~%d windows)",
			src.Name, cluster.RestartCycles(cl.CoresPerShard(), src), pol.RestartWindows(cl.CoresPerShard()))
	}
	fmt.Printf("%s drill: %d shards x %d cores at %.2fx saturation (%.0f Mbps), %d windows x %d cycles\n",
		name, shards, cores, offered, pol.OfferedMbps, windows, windowCycles)
	fmt.Printf("schedule (seed %d): %s%s\n", seed, sched, restart)
	fmt.Printf("%-8s %10s %10s %8s %s\n", "window", "del Mbps", "voice del%", "errors", "events")
	for w := 0; w < windows; w++ {
		// The controller armed this window's faults at the boundary that
		// opened it; note them on the row they fire in.
		var notes []string
		for _, e := range sched.ForWindow(w) {
			notes = append(notes, e.String())
		}
		win, err := runner.RunWindow(windowCycles)
		if err != nil {
			log.Fatal(err)
		}
		for _, ev := range ctl.Boundary() {
			if ev.Kind == fleet.Restarted {
				// The restart swapped the shard's platform out from under
				// the runner's per-window deltas; re-base them.
				runner.Resnapshot()
			}
			notes = append(notes, ev.String())
		}
		voice := 100.0
		if c := qos.CellOf(win.Classes, qos.Voice); c.Submitted > 0 {
			voice = 100 * float64(c.Completed) / float64(c.Submitted)
		}
		fmt.Printf("%-8d %10.0f %9.2f%% %8d %s\n",
			w, win.DeliveredMbps(), voice, win.Errors, strings.Join(notes, "; "))
	}
	exitReport(cl)
}

// flagSet reports whether a flag was passed explicitly on the command
// line (so presets never override an operator's choice).
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runFleet demonstrates the elastic control plane: open sessions across
// the pool, then scale the serving set and/or run a rolling Whirlpool
// swap, reporting the voice-first drains and re-admissions per leg.
func runFleet(cfg cluster.WorkloadConfig, scaleTo int, srcName string) {
	cl, err := cluster.New(cluster.Config{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.CoresPerShard,
		Router:        cfg.Router,
		Policy:        cfg.Policy,
		QueueRequests: cfg.QueueRequests,
		Seed:          uint64(cfg.Seed),
		BatchWindow:   cfg.BatchWindow,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	f := fleet.New(cl)

	// A handful of sessions so the drains have something to re-home.
	var sessions []*cluster.Session
	for i := 0; i < 2*cfg.Shards; i++ {
		ses, err := cl.Open(cluster.OpenSpec{Suite: trafficgen.SuiteFor(trafficgen.WiMaxGCM), KeyLen: 16})
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, ses)
	}

	if scaleTo > 0 {
		rep, err := f.Scale(scaleTo)
		if err != nil {
			log.Fatalf("-scale: %v", err)
		}
		fmt.Printf("scaled serving set to %d of %d shards; %d sessions re-homed (voice first)\n",
			rep.Active, cl.Shards(), rep.Moved)
	}

	if srcName != "" {
		src, err := reconfig.SourceByName(srcName)
		if err != nil {
			log.Fatalf("-rolling-swap: %v", err)
		}
		reports, err := f.RollingSwap(0, reconfig.EngineWhirlpool, src, nil)
		if err != nil {
			log.Fatalf("rolling swap: %v", err)
		}
		fmt.Printf("rolling Whirlpool swap from %s (core 0 of every serving shard):\n", src.Name)
		for _, rep := range reports {
			fmt.Printf("  shard %d: %d cycles (%.0f ms), drained %d, readmitted %d\n",
				rep.Shard, rep.Took, float64(rep.Took)/190e6*1e3, rep.Drained, rep.Readmitted)
		}
	}

	// Traffic still flows on the reshaped fleet.
	if _, err := sessions[0].Encrypt(make([]byte, 12), nil, []byte("served by the elastic fleet")); err != nil {
		log.Fatal(err)
	}
	exitReport(cl)
}

// runWithReconfig demonstrates the re-homing path: reconfigure one core,
// run block-cipher traffic, and hash on the reconfigured shard.
func runWithReconfig(cfg cluster.WorkloadConfig, shardID int) {
	cl, err := cluster.New(cluster.Config{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.CoresPerShard,
		Router:        cfg.Router,
		Policy:        cfg.Policy,
		QueueRequests: cfg.QueueRequests,
		Seed:          uint64(cfg.Seed),
		BatchWindow:   cfg.BatchWindow,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	took, moves, err := cl.Reconfigure(shardID, 0, reconfig.EngineWhirlpool, reconfig.StagingRAM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard %d core 0 -> Whirlpool in %d cycles (%.0f ms); %d sessions re-homed\n",
		shardID, took, float64(took)/190e6*1e3, moves.Moved)
	ses, err := cl.Open(cluster.OpenSpec{Suite: trafficgen.SuiteFor(trafficgen.WiMaxGCM), KeyLen: 16})
	if err != nil {
		log.Fatal(err)
	}
	hash, err := cl.Open(cluster.OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyHash}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GCM session homed on shard %d, hash session on shard %d\n", ses.Shard(), hash.Shard())
	digest, err := hash.Sum([]byte("hashing on the reconfigured shard"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("whirlpool digest: %x...\n", digest[:16])
	// Snapshot instead of Metrics: the summary printer only reads counters,
	// and Snapshot is safe to call without the front-end drain (the verdict
	// and byte counters are atomics polled without stopping the shards).
	exitReport(cl)
}
