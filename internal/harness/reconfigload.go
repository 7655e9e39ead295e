package harness

import (
	"fmt"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// This file is experiment E15: the cost of agility under traffic. The
// paper's headline capability — swap AES for Whirlpool via an 89–97 kB
// partial bitstream while the other cores keep serving — is measured
// here at fleet scope: a rolling per-shard swap drains each shard
// voice-first, rewrites its reconfigurable core at one of the paper's
// bitstream-source speeds, and re-admits it, while the remaining shards
// carry the full open-loop arrival stream. Each swap's bitstream window
// doubles as a measurement window on the serving shards, so the table
// answers "what happens to voice during the 63–416 ms the fleet is one
// shard short?" at each source speed and under both dispatch policies.

var e15 = Experiment{
	ID: "E15", Table: "reconfig",
	Title: "rolling reconfiguration under load (fleet agility cost)",
	Notes: []string{
		"(Whirlpool swap at 0.90x saturation; ReconfigUnderLoad/<policy>/*: 2 shards,",
		" windows compressed up to 256x; ReconfigUnderLoad/shards=4_scale=64/*: 4 shards",
		" at up to 64x; window_ms is the true window at the paper's source speeds)",
		"(a rolling Whirlpool swap drains each shard voice-first and measures",
		" every bitstream window on the serving shards; voice must hold ~0%",
		" loss with qos-priority keeping its p99 below first-idle's at every",
		" source speed, while background pays for the reservation)",
	},
	Points: reconfigPoints(),
	Gate: &Gate{
		Name:  "reconfig",
		Doc:   "E15 mini rolling swap (two shards, qos-priority, staging-RAM bitstream; the serving shard carries ~1.8x its own saturation): voice loss <= 1% during the bitstream windows, during-swap voice p99 <= 3x the all-shards baseline + 8000 cycles of scheduling slack",
		Check: reconfigGate,
	},
}

// reconfigBench is the bench- and gate-sized E15 cluster: two shards,
// bitstream windows compressed 256x.
var reconfigBench = ReconfigLoadConfig{Shards: 2, TimeScale: 256}

// reconfigPoints is the E15 sweep: one rolling swap per policy and
// bitstream source on the bench-sized cluster, then on four shards at a
// 64x compression. voice_delivered_frac participates in the tight
// baseline gate (voice must ride out every swap); during_delivered_Mbps
// gates as throughput; voice_swap_p99_cycles is informational.
func reconfigPoints() []Point {
	var pts []Point
	for _, sweep := range []struct {
		prefix string
		cfg    ReconfigLoadConfig
	}{
		{"ReconfigUnderLoad", reconfigBench},
		{"ReconfigUnderLoad/shards=4_scale=64", ReconfigLoadConfig{Shards: 4, TimeScale: 64}},
	} {
		for _, pol := range contrastPolicies {
			for _, src := range reconfig.Sources() {
				pts = append(pts, Point{Name: fmt.Sprintf("%s/%s/src=%s", sweep.prefix, pol, src.Name), Run: func() []Metric {
					run := ReconfigPointRun(pol, src, SaturationMbps(LoadMix, satPackets), sweep.cfg)
					v, bg := qos.CellOf(run.Classes, qos.Voice), qos.CellOf(run.Classes, qos.Background)
					return []Metric{
						{"window_ms", run.TrueWindowMillis},
						{"baseline_delivered_Mbps", run.BaselineDelivered},
						{"during_delivered_Mbps", run.DuringDelivered},
						{"voice_delivered_frac", 1 - v.LossFrac},
						{"voice_swap_p99_cycles", float64(v.P99)},
						{"voice_deadline_misses", float64(v.DeadlineMisses)},
						{"background_loss_pct", 100 * bg.LossFrac},
						{"background_swap_p99_cycles", float64(bg.P99)},
						{"sessions_drained", float64(run.Drained)},
					}
				}})
			}
		}
	}
	return pts
}

// The swap every E15 run makes: Whirlpool onto core 0 of every shard (the
// paper's §VII.B demonstration: the fleet gains hash capability, paying
// one AES core per shard), its window never compressed below
// minSwapWindow cycles so fast sources still yield a statistically
// meaningful measurement.
const (
	reconfigTarget          = reconfig.EngineWhirlpool
	minSwapWindow  sim.Time = 50000
)

// ReconfigLoadConfig parameterizes an E15 rolling swap.
type ReconfigLoadConfig struct {
	// Shards and CoresPerShard size the cluster (defaults 4 and 4).
	Shards, CoresPerShard int
	// Offered is the cluster-total offered load as a fraction of the
	// all-shards-serving saturation capacity (default 0.9 — healthy
	// with every shard up, ~1.2x per-shard saturation while one of four
	// shards is draining).
	Offered float64
	// TimeScale compresses the bitstream windows: each source is sped up
	// by up to this factor (default 64) so a CompactFlash swap (~72M
	// cycles at full scale) stays simulable, but never so far that a
	// window drops below minSwapWindow. Reported true durations are
	// always at full scale.
	TimeScale float64
	// Process names the arrival process (default poisson); Mix the class
	// mix (default LoadMix).
	Process string
	Mix     []arrivals.ClassProfile
	// Capacity and QueueDepth size each shard's shaper (defaults 32 and
	// 64 — wider than the E13 device-scope defaults so the class-blind
	// in-flight gate does not dominate voice latency and the dispatch
	// policies can differentiate, the same contrast E13 shows past the
	// knee: qos-priority holds voice p99 lower and flatter while
	// first-idle's climbs).
	Capacity, QueueDepth int
	Seed                 uint64
}

func (c *ReconfigLoadConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.CoresPerShard <= 0 {
		c.CoresPerShard = 4
	}
	if c.Offered <= 0 {
		c.Offered = 0.9
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 64
	}
	if c.Process == "" {
		c.Process = arrivals.ProcPoisson
	}
	if len(c.Mix) == 0 {
		c.Mix = LoadMix
	}
	if c.Capacity <= 0 {
		c.Capacity = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Seed == 0 {
		c.Seed = 31
	}
}

// effectiveScale compresses src by at most cfg.TimeScale while keeping
// the swap window at or above the floor.
func (c ReconfigLoadConfig) effectiveScale(src reconfig.Source) float64 {
	window := float64(fleet.SwapWindow(reconfigTarget, src))
	scale := c.TimeScale
	if floor := window / float64(minSwapWindow); floor < scale {
		scale = floor
	}
	if scale < 1 {
		scale = 1
	}
	return scale
}

// ReconfigRun is one (policy, source) measurement.
type ReconfigRun struct {
	Policy string
	Source string
	// TrueWindowMillis is the full-scale bitstream window (stream-in plus
	// controller image rewrite) at the modeled clock — the paper's Table
	// IV timescale. SwapCycles is the compressed virtual duration each
	// leg actually simulated, and Scale the compression used.
	TrueWindowMillis float64
	SwapCycles       sim.Time
	Scale            float64
	// Legs counts per-shard swaps; Drained/Readmitted total the sessions
	// re-homed around them (voice-first order).
	Legs, Drained, Readmitted int
	// Baseline fields measure an equal window with every shard serving,
	// before any swap; During fields cover the swap legs.
	BaselineVoiceP99  sim.Time
	BaselineDelivered float64
	DuringDelivered   float64
	// Classes aggregates each class across every swap leg's measurement
	// window (the traffic served while a shard was down). Percentiles are
	// over the merged samples of every leg — the swap phase as one
	// distribution, not the worst single window (a fully saturated leg
	// serializes dispatch and erases the policy contrast; merging keeps
	// it visible).
	Classes []qos.ClassCell
	// Digest folds every measurement window's arrival digest (baseline,
	// each leg, recovery) — the determinism witness.
	Digest uint64
	// Errors counts completions with unexpected verdicts (always 0 in a
	// healthy run).
	Errors int
}

// ReconfigPointRun measures one (policy, source) point: a rolling
// Whirlpool swap across every shard under a sustained open-loop arrival
// stream at cfg.Offered of satMbps (the calibrated device saturation,
// scaled to CoresPerShard) per shard, measuring the traffic served during
// each bitstream window. Deterministic: everything runs in virtual time
// on the splittable PRNG.
func ReconfigPointRun(policy string, src reconfig.Source, satMbps float64, cfg ReconfigLoadConfig) ReconfigRun {
	cfg.fill()
	satPerShard := satMbps * float64(cfg.CoresPerShard) / 4
	cl, err := cluster.New(cluster.Config{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.CoresPerShard,
		Router:        cluster.RouterLeastLoaded,
		Policy:        policy,
		QueueRequests: true,
		Seed:          cfg.Seed,
		Shape:         true,
		Shaper: qos.Config{
			Capacity:   cfg.Capacity,
			QueueDepth: cfg.QueueDepth,
		},
	})
	if err != nil {
		panic(err) // experiment drivers pass literal configurations
	}
	defer cl.Close()

	scale := cfg.effectiveScale(src)
	scaled := src.Scaled(scale)
	run := ReconfigRun{
		Policy:           policy,
		Source:           src.Name,
		TrueWindowMillis: float64(fleet.SwapWindow(reconfigTarget, src)) / sim.DefaultFreqHz * 1e3,
		Scale:            scale,
		Digest:           arrivals.DigestInit,
	}

	runner, err := cluster.NewOpenLoopRunner(cl, cluster.OpenLoopRunnerConfig{
		Process:     cfg.Process,
		Profiles:    cfg.Mix,
		OfferedMbps: cfg.Offered * satPerShard * float64(cfg.Shards),
		Seed:        cfg.Seed,
	})
	if err != nil {
		panic(err)
	}
	f := fleet.New(cl)
	window := fleet.SwapWindow(reconfigTarget, scaled)
	run.SwapCycles = window

	fold := func(w cluster.OpenLoopWindow) {
		run.Digest = (run.Digest ^ w.Digest) * 0x100000001b3
		run.Errors += w.Errors
	}

	// Baseline: an equal window with every shard serving.
	base, err := runner.RunWindow(window)
	if err != nil {
		panic(err)
	}
	fold(base)
	run.BaselineVoiceP99 = qos.CellOf(base.Classes, qos.Voice).P99
	run.BaselineDelivered = base.DeliveredMbps()

	// The rolling swap: each leg's during hook serves one bitstream
	// window on the remaining shards.
	var acc [qos.NumClasses]qos.ClassCell
	var seen [qos.NumClasses]bool
	var during sim.Time
	legs := 0
	reports, err := f.RollingSwap(0, reconfigTarget, scaled,
		func(shard int, legWindow sim.Time) error {
			w, err := runner.RunWindow(legWindow)
			if err != nil {
				return err
			}
			fold(w)
			legs++
			during += legWindow
			run.DuringDelivered += w.DeliveredMbps()
			for _, c := range w.Classes {
				seen[c.Class] = true
				acc[c.Class].Class = c.Class
				acc[c.Class].Accumulate(c.ClassStats)
				acc[c.Class].Samples = append(acc[c.Class].Samples, c.Samples...)
			}
			return nil
		})
	if err != nil {
		panic(err)
	}
	for _, rep := range reports {
		run.Legs++
		run.Drained += rep.Drained
		run.Readmitted += rep.Readmitted
	}
	if legs > 0 {
		run.DuringDelivered /= float64(legs)
	}
	// Recovery window: every shard back, digests must keep folding so a
	// post-swap divergence cannot hide.
	rec, err := runner.RunWindow(window)
	if err != nil {
		panic(err)
	}
	fold(rec)

	bytes := mixBytes(cfg.Mix)
	for _, class := range qos.Classes() {
		if seen[class] {
			run.Classes = append(run.Classes,
				qos.NewClassCell(acc[class].ClassStats, acc[class].Samples, bytes[class], during))
		}
	}
	return run
}

// reconfigGate runs the mini rolling swap: each shard's core is rewritten
// from staging RAM while the other carries the whole stream.
// Deliberately small so the gate costs seconds.
func reconfigGate() GateReport {
	run := ReconfigPointRun("qos-priority", reconfig.StagingRAM, SaturationMbps(LoadMix, satPackets), reconfigBench)
	v, bg := qos.CellOf(run.Classes, qos.Voice), qos.CellOf(run.Classes, qos.Background)
	const lossLimit = 0.01
	p99Limit := 3*run.BaselineVoiceP99 + 8000
	r := GateReport{
		Summary: fmt.Sprintf("voice loss %.2f%% (limit %.0f%%), p99 %d cycles during swap (baseline %d, limit %d) under qos-priority",
			100*v.LossFrac, 100*lossLimit, v.P99, run.BaselineVoiceP99, p99Limit),
		Details: []string{fmt.Sprintf("source %s (%.1f ms window): delivered %.0f -> %.0f Mbps during swap, background loss %.2f%%",
			run.Source, run.TrueWindowMillis, run.BaselineDelivered, run.DuringDelivered, 100*bg.LossFrac)},
	}
	r.require(v.LossFrac <= lossLimit, "voice loss %.2f%% during the swap exceeds %.0f%%", 100*v.LossFrac, 100*lossLimit)
	r.require(v.P99 <= p99Limit, "during-swap voice p99 %d exceeds %d", v.P99, p99Limit)
	return r
}
