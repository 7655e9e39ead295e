package cluster

import (
	"fmt"

	"mccp/internal/arrivals"
	"mccp/internal/bufpool"
	"mccp/internal/cryptocore"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/sim"
	"mccp/internal/trafficgen"
)

// WorkloadConfig parameterizes RunWorkload, the cluster-level analogue of
// trafficgen.RunMixed: a deterministic multi-standard packet mix pushed
// through a sharded cluster with batched dispatch.
type WorkloadConfig struct {
	Shards        int
	CoresPerShard int
	Router        string // routing policy (default hash-by-key)
	Policy        string // per-shard dispatch policy (default first-idle)
	QueueRequests bool
	// MaxQueue bounds each shard's request queue (0 = unbounded); see
	// Config.MaxQueue.
	MaxQueue    int
	Packets     int // total packets (default 96)
	Sessions    int // sessions cycled over the mix (default 4 x Shards)
	Mix         []trafficgen.Standard
	Seed        int64
	BatchWindow int
	// ShardWindow overrides the per-shard in-flight window (see
	// Config.ShardWindow); with QueueRequests off, a window above the
	// core count deliberately drives the device into error-flag rejects.
	ShardWindow int
	// Shape runs a qos.Shaper on every shard (see Config.Shape); Shaper
	// configures it. A pass-through shaper (zero Shaper) leaves every
	// virtual-time result identical and adds per-class attribution.
	Shape  bool
	Shaper qos.Config
}

// WorkloadResult is a run summary.
type WorkloadResult struct {
	Metrics Metrics
	// ShardDigests folds every completed packet's output bytes, per shard
	// in completion order, into an FNV-1a accumulator — byte-for-byte
	// determinism checks compare these across runs.
	ShardDigests []uint64
	// Errors counts failed packets (only possible with QueueRequests off,
	// where saturation draws the paper's error flag, or with a bounded
	// MaxQueue shedding overflow).
	Errors int
	// ClassPackets and ClassBytes break completed traffic down by QoS
	// class (indexed by qos.Class), for mixed-priority workload reports.
	ClassPackets [qos.NumClasses]uint64
	ClassBytes   [qos.NumClasses]uint64
}

// sessionWeight estimates a standard's relative cycle cost per packet from
// the paper's loop bounds (§VII.A): CCM on one core runs ~104 cycles per
// 16-byte block, GCM ~49. The router only needs relative magnitudes.
func sessionWeight(s trafficgen.Standard) int {
	avg := (s.MinBytes + s.MaxBytes) / 2
	perBlock := 49
	if s.Family == cryptocore.FamilyCCM {
		perBlock = 104
		if s.Split {
			perBlock = 55
		}
	}
	return avg / 16 * perBlock
}

// RunWorkload drives a mixed multi-standard workload through a cluster
// and reports aggregated metrics plus per-shard output digests.
func RunWorkload(cfg WorkloadConfig) (WorkloadResult, error) {
	if cfg.Packets <= 0 {
		cfg.Packets = 96
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = trafficgen.DefaultMix
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4 * max(cfg.Shards, 1)
	}
	cl, err := New(Config{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.CoresPerShard,
		Router:        cfg.Router,
		Policy:        cfg.Policy,
		QueueRequests: cfg.QueueRequests,
		MaxQueue:      cfg.MaxQueue,
		Seed:          uint64(cfg.Seed),
		BatchWindow:   cfg.BatchWindow,
		ShardWindow:   cfg.ShardWindow,
		Shape:         cfg.Shape,
		Shaper:        cfg.Shaper,
	})
	if err != nil {
		return WorkloadResult{}, err
	}
	defer cl.Close()

	sessions := make([]*Session, cfg.Sessions)
	for i := range sessions {
		std := cfg.Mix[i%len(cfg.Mix)]
		suite := trafficgen.SuiteFor(std)
		sessions[i], err = cl.Open(OpenSpec{Suite: suite, KeyLen: std.KeyLen, Weight: sessionWeight(std)})
		if err != nil {
			return WorkloadResult{}, fmt.Errorf("cluster: opening session %d (%s): %w", i, std.Name, err)
		}
	}

	res := WorkloadResult{ShardDigests: make([]uint64, cl.Shards())}
	for i := range res.ShardDigests {
		res.ShardDigests[i] = 0xcbf29ce484222325 // FNV-64a offset basis
	}
	// Each packet's result folds into its shard's digest; the packet and
	// result buffers are recycled once the operation has delivered
	// (allocation-free steady state).
	gen := trafficgen.NewGenerator(cfg.Seed, cfg.Mix)
	for p := 0; p < cfg.Packets; p++ {
		i := p % cfg.Sessions
		ses := sessions[i]
		pkt := gen.Next(i%len(cfg.Mix), ses.ID())
		class := cfg.Mix[i%len(cfg.Mix)].Class()
		shardID := ses.Shard()
		n := len(pkt.Payload)
		ses.EncryptAsync(pkt.Nonce, pkt.AAD, pkt.Payload, func(out []byte, err error) {
			trafficgen.ReleasePacket(pkt)
			if err != nil {
				res.Errors++
				return
			}
			res.ClassPackets[class]++
			res.ClassBytes[class] += uint64(n)
			d := res.ShardDigests[shardID]
			for _, by := range out {
				d = (d ^ uint64(by)) * 0x100000001b3
			}
			res.ShardDigests[shardID] = d
			bufpool.PutBytes(out)
		})
	}
	cl.Flush()
	res.Metrics = cl.Metrics()
	return res, nil
}

// OpenLoopConfig parameterizes RunOpenLoop: the cluster-level open-loop
// arrivals experiment. Every shard gets one session per class profile and
// its own arrival sources, scheduled as events on the shard's engine, so
// offered load is an input per shard — not an outcome of backpressure —
// and per-class verdicts and latency are attributable per shard.
type OpenLoopConfig struct {
	Shards        int
	CoresPerShard int
	Router        string // default least-loaded (spreads one session per class per shard)
	Policy        string // per-shard dispatch policy (the E13 contrast axis)
	// Process selects the arrival process by name (default poisson).
	Process string
	// Drain, Weights, ShaperCapacity, ClassQueueDepth and AgeLimit
	// configure the per-shard shapers. ShaperCapacity defaults to
	// 2 x CoresPerShard; ClassQueueDepth to 32.
	Drain           string
	Weights         qos.Weights
	ShaperCapacity  int
	ClassQueueDepth int
	AgeLimit        sim.Time
	// Offered is the offered load per shard as a fraction of
	// SatMbpsPerShard (1.0 = the saturation knee).
	Offered float64
	// SatMbpsPerShard is the nominal per-shard capacity used to convert
	// Offered into arrival rates (the harness calibrates it).
	SatMbpsPerShard float64
	// Horizon is the measurement window in cycles on every shard's own
	// clock: sources emit arrivals until the window closes.
	Horizon sim.Time
	// Profiles is the class mix (default harness-style all-class mix is
	// supplied by callers; must be non-empty with positive shares).
	Profiles []arrivals.ClassProfile
	Seed     uint64
	// Trace configures per-shard lifecycle tracing for the run; when
	// enabled the result carries the recorded spans and their digest.
	Trace obs.TraceConfig
}

// OpenLoopResult is the RunOpenLoop summary.
type OpenLoopResult struct {
	// OpenLoopWindow is the run's one measurement window: per-class cells
	// aggregated across shards (highest priority first), the per-shard
	// arrival digests — the determinism witness: same seed, same digests
	// — each shard's virtual time consumed, and the count of verdicts
	// other than success/shed/expired/aged.
	OpenLoopWindow
	// PerShard holds each shard's shaper counters, highest priority first.
	PerShard [][]qos.ClassStats
	// Spans and TraceDigest carry the lifecycle trace when
	// OpenLoopConfig.Trace was enabled (nil/zero otherwise).
	Spans       []obs.Span
	TraceDigest uint64
}

// openLoopProgram is the per-shard arrival program state, driven entirely
// inside the shard goroutine (one generic operation per shard). The front
// end prepares it deterministically (the shard's sources, in the runner's
// fixed order) and reads the results only after the flush barrier.
type openLoopProgram struct {
	sources []runnerSource
	slot    *pendingOp
	digest  uint64
	cycles  sim.Time
	errors  int
	// outstanding counts submitted packets still without a verdict;
	// offered/delivered the payload bytes submitted and completed cleanly,
	// folded into the shard's published counters when the program ends
	// (these packets never cross the front end's submit/deliver path, so
	// its byte counters cannot see them).
	outstanding int
	offered     uint64
	delivered   uint64
}

// RunOpenLoop drives the open-loop class mix through a fresh shaped
// cluster for one OpenLoopRunner window and reports per-class
// loss/latency, per shard and aggregated. Every random draw descends from
// cfg.Seed through splittable streams, so two runs are bit-identical.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	if len(cfg.Profiles) == 0 {
		return OpenLoopResult{}, fmt.Errorf("cluster: open-loop run needs class profiles")
	}
	if cfg.Offered <= 0 || cfg.SatMbpsPerShard <= 0 || cfg.Horizon == 0 {
		return OpenLoopResult{}, fmt.Errorf("cluster: open-loop run needs positive Offered, SatMbpsPerShard and Horizon")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.ShaperCapacity <= 0 {
		cores := cfg.CoresPerShard
		if cores <= 0 {
			cores = 4
		}
		cfg.ShaperCapacity = 2 * cores
	}
	if cfg.ClassQueueDepth <= 0 {
		cfg.ClassQueueDepth = 32
	}
	// A bad drain name would otherwise surface as a panic inside
	// qos.NewShaper; the runner validates the process name and profiles.
	if _, err := qos.DrainByName(cfg.Drain); err != nil {
		return OpenLoopResult{}, err
	}
	router := cfg.Router
	if router == "" {
		router = RouterLeastLoaded
	}
	cl, err := New(Config{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.CoresPerShard,
		Router:        router,
		Policy:        cfg.Policy,
		QueueRequests: true,
		Seed:          cfg.Seed,
		Shape:         true,
		Shaper: qos.Config{
			Capacity:   cfg.ShaperCapacity,
			QueueDepth: cfg.ClassQueueDepth,
			Drain:      cfg.Drain,
			Weights:    cfg.Weights,
			AgeLimit:   cfg.AgeLimit,
		},
		Trace: cfg.Trace,
	})
	if err != nil {
		return OpenLoopResult{}, err
	}
	defer cl.Close()

	// One source per class per shard, opened class-major so the
	// least-loaded router spreads each wave evenly (weight 1 across the
	// board keeps the tie-breaks session-count based).
	runner, err := NewOpenLoopRunner(cl, OpenLoopRunnerConfig{
		Process:     cfg.Process,
		Profiles:    cfg.Profiles,
		OfferedMbps: cfg.Offered * cfg.SatMbpsPerShard * float64(cl.Shards()),
		Seed:        cfg.Seed,
	})
	if err != nil {
		return OpenLoopResult{}, err
	}
	w, err := runner.RunWindow(cfg.Horizon)
	if err != nil {
		return OpenLoopResult{}, err
	}
	res := OpenLoopResult{OpenLoopWindow: w, PerShard: make([][]qos.ClassStats, cl.Shards())}
	for s, sh := range cl.shards {
		res.PerShard[s] = sh.shaper.AllStats()
	}
	if cfg.Trace.Enabled {
		res.Spans = cl.TraceSpans()
		res.TraceDigest = cl.TraceDigest()
	}
	return res, nil
}

// runOpenLoopShard is the arrival program body, running on the shard
// goroutine: it starts one open-loop source per local session, lets them
// emit into the shard's shaper until the horizon closes, and calls done
// once every source has stopped and every submitted packet has a verdict.
func runOpenLoopShard(sh *shard, p *openLoopProgram, procName string, horizon sim.Time, done func()) {
	start := sh.eng.Now()
	until := start + horizon
	stopped := 0
	finished := false
	check := func() {
		if !finished && stopped == len(p.sources) && p.outstanding == 0 {
			finished = true
			p.cycles = sh.eng.Now() - start
			sh.progOffered += p.offered
			sh.progBytes += p.delivered
			done()
		}
	}
	for i, rs := range p.sources {
		mk, err := arrivals.ByName(procName, rs.mean)
		if err != nil {
			panic(err) // validated by NewOpenLoopRunner before dispatch
		}
		em := arrivals.NewEmitter(sh.eng, rs.prof, uint64(i), &p.digest,
			func(class qos.Class, nonce, payload []byte, deadline sim.Time) {
				p.outstanding++
				n := uint64(len(payload))
				p.offered += n
				sh.shaper.EncryptDeadline(class, rs.ses.chID, nonce, nil, payload, deadline,
					func(_ []byte, err error) {
						p.outstanding--
						if err == nil {
							p.delivered += n
						} else if !arrivals.ExpectedVerdict(err) {
							p.errors++
						}
						check()
					})
			})
		src := arrivals.NewSource(sh.eng, mk(), rs.rng, em.Emit)
		src.Done = func() {
			stopped++
			check()
		}
		src.Start(-1, until)
	}
	check() // a shard with zero sessions (or all-stopped sources) still completes
}
