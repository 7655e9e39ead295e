package harness

import (
	"fmt"
	"strings"

	"mccp/internal/faults"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// This file is experiment E17: recovery curves. E16 measured the fall —
// crash, detection, fail-over, brownout floor. E17 measures the climb
// back: with the server's restart loop armed, the quarantined corpse is
// rebuilt by streaming the base bitstream back in at one of the paper's
// Table IV source speeds (CompactFlash, staging RAM, or the ICAP-rate
// ceiling), rejoined to the pool, reloaded voice-first, and the brownout
// mask lifted class-by-class as the measured load fits back under the
// restored capacity. The table sweeps the bitstream source at a fixed
// 0.9x-saturation load and reports the full arc per source: restart
// duration (scaled and at true paper speed), rejoin window, voice
// recovery, and time back to full delivered capacity. The paper's
// reconfiguration-speed hierarchy should survive the trip through the
// whole serving stack: ICAP rejoins before RAM rejoins before
// CompactFlash. Single loopback connection, seeded schedule: the whole
// drill is a pure function of (config, seed), and the zero-fault
// baseline row is computed by E16's own FaultPointRun — bit-identical
// to its zero row.

var e17 = Experiment{
	ID: "E17", Table: "heal",
	Title: "recovery curves (restart + rejoin per bitstream source, brownout lift)",
	Run:   func() string { return FormatRecoveryCurves(RecoveryCurves(RecoveryConfig{})) },
	Notes: []string{
		"(the E16 crash with the restart loop armed: the corpse is rebuilt by",
		" streaming the base bitstream back in at each Table IV source speed,",
		" rejoined voice-first, and the brownout lifted class-by-class as the",
		" measured load fits under the restored capacity; the reconfiguration",
		" hierarchy survives the full stack — icap rejoins before ram before",
		" compact-flash — and the zero-fault baseline is E16's row verbatim)",
	},
	Points: recoveryPoints(),
	Gate: &Gate{
		Name:  "heal",
		Doc:   "E17 mini drill (1 of 4 shards crashed at 0.9x saturation, qos-priority, restart loop armed on the icap source): voice loss <= 1%, no session lost, the corpse restarts and rejoins, the brownout lifts fully, voice recovers within 3 windows, delivered capacity climbs back to 95% of the pre-crash rate",
		Check: healGate,
	},
}

// recoveryPoints is the E17 bench sweep: one drill per bitstream source.
// voice_delivered_frac and brownout_lifted participate in the tight
// baseline gate; restart/rejoin/capacity figures are informational
// virtual-time counts whose ordering mirrors Table IV.
func recoveryPoints() []Point {
	// TimeScale squeezes even the compact-flash reload into the short
	// bench horizon; source ordering is scale-invariant.
	cfg := RecoveryConfig{FaultConfig: faultDrill(96), TimeScale: 16384}
	cfg.fill()
	var pts []Point
	for _, pol := range cfg.Policies {
		for _, src := range cfg.Sources {
			pts = append(pts, Point{Name: fmt.Sprintf("RecoveryCurves/%s/source=%s", pol, src.Name), Run: func() []Metric {
				p := RecoveryPointRun(pol, src, cfg.Wire.saturation(), cfg)
				return append(p.metrics(),
					Metric{"restart_cycles", float64(p.RestartCycles)},
					Metric{"restart_true_ms", p.TrueRestartMillis},
					Metric{"rejoin_window", float64(p.RejoinWindow)},
					Metric{"brownout_lifted", flag01(p.BrownoutLifted)},
					Metric{"capacity_cycles", float64(p.CapacityCycles)},
					Metric{"capacity_restored", flag01(p.CapacityRestored)})
			}})
		}
	}
	return pts
}

// RecoveryConfig parameterizes RecoveryCurves.
type RecoveryConfig struct {
	// FaultConfig is the E16 drill this experiment arms the restart loop
	// on: pipeline, fixed 0.9x load, crash window and voice-recovery
	// threshold, all with E16's defaults — so the zero-fault baseline is
	// E16's zero row verbatim. Rows is unused (every drill is one crash,
	// no churn) and Policies defaults to qos-priority only, the policy
	// E16 showed survives the fall with zero voice loss.
	FaultConfig
	// Sources are the bitstream sources swept, slowest first (default
	// the paper's three: compact-flash, ram, icap).
	Sources []reconfig.Source
	// TimeScale compresses each source's reload time onto the simulated
	// window horizon (default 4096): the virtual restart takes
	// 1/TimeScale of the true reload, and TrueRestartMillis reports the
	// unscaled figure. The hierarchy between sources is unaffected.
	TimeScale float64
	// CapacityFrac is the fraction of the pre-crash delivered rate that
	// counts as full capacity restored (default 0.95).
	CapacityFrac float64
}

func (c *RecoveryConfig) fill() {
	if len(c.Policies) == 0 {
		c.Policies = []string{"qos-priority"}
	}
	c.FaultConfig.fill()
	if len(c.Sources) == 0 {
		c.Sources = reconfig.Sources()
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 4096
	}
	if c.CapacityFrac <= 0 {
		c.CapacityFrac = 0.95
	}
}

// RecoveryPoint is one (policy, bitstream source) drill.
type RecoveryPoint struct {
	// FaultPoint is the drill as E16 sees it (one crash, no churn): the
	// horizon-wide cells and digests, the fault plan, the controller's
	// event trail (fail-over, restart + rebalance back, each brownout
	// lift) with its aggregates, voice recovery and the per-window tallies.
	FaultPoint
	// Source is the bitstream source the restart streamed from.
	Source string
	// RestartCycles is the bitstream reload's virtual duration on the
	// rebuilt shard's timeline (at the TimeScale-compressed source);
	// TrueRestartMillis undoes the compression — the reload at the
	// paper's real source speed, in milliseconds. RejoinWindow is the
	// boundary the shard came back at (-1: never rejoined).
	RestartCycles     sim.Time
	TrueRestartMillis float64
	RejoinWindow      int
	// BrownoutImposed reports the fail-over shed at least one class;
	// BrownoutLifted that the mask was fully clear by the horizon.
	BrownoutImposed bool
	BrownoutLifted  bool
	// CapacityCycles is the crash to the first post-rejoin window
	// delivering CapacityFrac of the pre-crash rate.
	CapacityCycles   sim.Time
	CapacityRestored bool
}

// RecoveryResult is the E17 table.
type RecoveryResult struct {
	SaturationMbps float64
	Offered        float64
	Sessions       int
	TimeScale      float64
	// Baseline is the zero-fault row, computed by E16's FaultPointRun
	// so the two experiments' baselines are bit-identical.
	Baseline FaultPoint
	// Points are policy-major, sources in the configured order.
	Points []RecoveryPoint
}

// RecoveryCurves runs E17: the zero-fault baseline through the E16
// pipeline, then one full crash-and-recovery drill per (policy, source).
func RecoveryCurves(cfg RecoveryConfig) RecoveryResult {
	cfg.fill()
	sat := cfg.Wire.saturation()
	res := RecoveryResult{
		SaturationMbps: sat,
		Offered:        cfg.Offered,
		Sessions:       cfg.Wire.Sessions,
		TimeScale:      cfg.TimeScale,
	}
	res.Baseline = FaultPointRun(cfg.Policies[0], FaultRow{}, sat, cfg.FaultConfig)
	for _, pol := range cfg.Policies {
		for _, src := range cfg.Sources {
			res.Points = append(res.Points, RecoveryPointRun(pol, src, sat, cfg))
		}
	}
	return res
}

// RecoveryPointRun measures one (policy, source) drill: one shard
// crashes mid-window at the fixed load, the detector fails it over and
// browns out, the restart loop rebuilds it from src and rejoins it, and
// the point records how long the climb back took.
func RecoveryPointRun(policy string, src reconfig.Source, satMbps float64, cfg RecoveryConfig) RecoveryPoint {
	cfg.fill()
	point := RecoveryPoint{Source: src.Name, RejoinWindow: -1}
	point.FaultPoint = faultPointRun(policy, FaultRow{Crashes: 1}, satMbps, cfg.FaultConfig,
		func(fp *fleet.HealPolicy) { fp.RestartSource = src.Scaled(cfg.TimeScale) }, nil)
	// The final mask on record decides whether the brownout fully
	// lifted; every event carries the mask in force after it ran.
	var finalDeny, admitAll [qos.NumClasses]bool
	for _, ev := range point.Events {
		if ev.Kind == fleet.Restarted {
			point.RestartCycles = ev.Took
			point.RejoinWindow = ev.Window
		}
		finalDeny = ev.Deny
		if finalDeny != admitAll {
			point.BrownoutImposed = true
		}
	}
	point.BrownoutLifted = finalDeny == admitAll
	point.TrueRestartMillis = float64(point.RestartCycles) * cfg.TimeScale / sim.DefaultFreqHz * 1e3
	point.CapacityCycles, point.CapacityRestored = capacityOf(point.Schedule, cfg.Wire.WindowCycles,
		cfg.CapacityFrac, cfg.FaultWindow, point.RejoinWindow, point.Windows)
	return point
}

// capacityOf derives the crash-to-full-capacity span: the pre-crash
// delivered rate is the mean per-window OK count over the steady windows
// before the crash (skipping two warm-up windows), and capacity counts
// as restored at the end of the first window at or after the rejoin
// delivering at least frac of that rate. rejoin < 0 (never rejoined)
// reports restored == false.
func capacityOf(sched faults.Schedule, windowCycles sim.Time, frac float64,
	faultWindow, rejoin int, wins []server.WindowLoad) (sim.Time, bool) {
	if rejoin < 0 || len(wins) == 0 {
		return 0, false
	}
	var crashAt sim.Time
	for _, e := range sched.Events {
		if e.Kind == faults.ShardCrash {
			crashAt = sim.Time(e.Window)*windowCycles + e.Offset
			break
		}
	}
	total := func(w server.WindowLoad) uint64 {
		var ok uint64
		for _, cw := range w.Classes {
			ok += cw.OK
		}
		return ok
	}
	lo := 2
	if lo >= faultWindow {
		lo = 0
	}
	var steady float64
	for w := lo; w < faultWindow && w < len(wins); w++ {
		steady += float64(total(wins[w]))
	}
	if n := faultWindow - lo; n > 0 {
		steady /= float64(n)
	}
	if steady <= 0 {
		return 0, false
	}
	for w := rejoin; w < len(wins); w++ {
		if float64(total(wins[w])) >= frac*steady {
			return sim.Time(w+1)*windowCycles - crashAt, true
		}
	}
	return 0, false
}

// FormatRecoveryCurves renders the E17 table.
func FormatRecoveryCurves(r RecoveryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery curves (E17): loopback mccpserver at %.1fx saturation (~%.0f Mbps), %d sessions, crash -> restart -> rejoin per bitstream source (reload time-compressed %gx)\n",
		r.Offered, r.SaturationMbps, r.Sessions, r.TimeScale)
	fmt.Fprintf(&b, "restart = bitstream reload on the rebuilt shard (true ms at paper source speed); recover = crash to voice back >= 99%%; capacity = crash to delivered rate back >= 95%% of pre-crash\n")
	fmt.Fprintf(&b, "%-12s %-13s | %8s %8s | %6s %5s | %12s %10s %6s | %12s %12s %8s\n",
		"policy", "source", "v loss%", "loss%", "moved", "lost",
		"restart cyc", "true ms", "rejoin", "recover cyc", "capacity cyc", "lifted")
	base := r.Baseline
	fmt.Fprintf(&b, "%-12s %-13s | %7.2f%% %7.2f%% | %6d %5d | %12s %10s %6s | %12s %12s %8s\n",
		base.Policy, "(no fault)", 100*qos.CellOf(base.Classes, qos.Voice).LossFrac, 100*base.TotalLossFrac,
		base.Moved, base.Lost, "-", "-", "-", "-", "-", "-")
	for _, p := range r.Points {
		lifted := "yes"
		if !p.BrownoutLifted {
			lifted = "NO"
		}
		fmt.Fprintf(&b, "%-12s %-13s | %7.2f%% %7.2f%% | %6d %5d | %12d %10.1f %6s | %12s %12s %8s\n",
			p.Policy, p.Source, 100*qos.CellOf(p.Classes, qos.Voice).LossFrac, 100*p.TotalLossFrac,
			p.Moved, p.Lost, p.RestartCycles, p.TrueRestartMillis,
			cyclesOrDNF(sim.Time(p.RejoinWindow), p.RejoinWindow >= 0),
			cyclesOrDNF(p.RecoveryCycles, p.Recovered), cyclesOrDNF(p.CapacityCycles, p.CapacityRestored), lifted)
	}
	return b.String()
}

// healGate runs the one-drill loopback recovery. Small on purpose: 64
// sessions, 24 short windows, one crash in a 4-shard cluster, restart
// from the icap source.
func healGate() GateReport {
	cfg := RecoveryConfig{FaultConfig: faultDrill(64)}
	p := RecoveryPointRun("qos-priority", reconfig.FastICAP, cfg.Wire.saturation(), cfg)
	v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
	restarts, rebalanced := 0, 0
	for _, ev := range p.Events {
		if ev.Kind == fleet.Restarted {
			restarts++
			rebalanced += ev.Moved
		}
	}
	lifted := "lifted"
	if !p.BrownoutLifted {
		lifted = "NOT lifted"
	}
	capacity := cyclesOrDNF(p.CapacityCycles, p.CapacityRestored)
	if p.CapacityRestored {
		capacity += " cycles"
	}
	const limit sim.Time = 3 * 4096
	r := GateReport{
		Summary: fmt.Sprintf("voice loss %.2f%% (limit 1%%), %d lost (limit 0), %d restart(s) rejoining at window %d, brownout %s, voice recovery %s cycles (limit %d), capacity back in %s",
			100*v.LossFrac, p.Lost, restarts, p.RejoinWindow, lifted, cyclesOrDNF(p.RecoveryCycles, p.Recovered), limit, capacity),
		Details: []string{fmt.Sprintf("source %s: restart %d cyc (%.1f ms at true speed), %d sessions rebalanced back, background loss %.2f%%",
			p.Source, p.RestartCycles, p.TrueRestartMillis, rebalanced, 100*bg.LossFrac)},
	}
	r.require(v.LossFrac <= 0.01, "voice loss %.2f%% exceeds 1%%", 100*v.LossFrac)
	r.require(p.Lost == 0, "%d sessions lost", p.Lost)
	r.require(restarts >= 1, "the crashed shard never restarted")
	r.require(p.BrownoutLifted, "the brownout mask was not fully lifted by the horizon")
	r.require(p.Recovered && p.RecoveryCycles <= limit, "voice recovery %s cycles exceeds %d",
		cyclesOrDNF(p.RecoveryCycles, p.Recovered), limit)
	r.require(p.CapacityRestored, "delivered capacity never climbed back to the pre-crash rate")
	return r
}
