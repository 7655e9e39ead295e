package harness

import (
	"fmt"
	"strings"

	"mccp/internal/arrivals"
	"mccp/internal/faults"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// This file is experiment E16: fault curves. The E14 wire pipeline runs
// at a fixed offered load (0.9x saturation — busy but not yet over the
// knee) while a seeded fault schedule kills shards mid-window and a
// session-churn storm hammers the control plane. The server's failure
// detector notices each frozen heartbeat at the next FLUSH boundary,
// quarantines the corpse, re-homes its sessions voice-first onto the
// survivors and sheds lower classes (brownout) when the surviving
// capacity no longer covers the offered load. The table sweeps fault
// intensity (crash count x churn rate) under first-idle vs qos-priority
// and reports per-class loss, wire p99, re-home latency and recovery
// time. Single connection on the loopback transport: every row is a
// pure function of (config, seed), and the zero-fault row is computed
// by the same code path as the E14 baseline — bit-identical to it.

var e16 = Experiment{
	ID: "E16", Table: "faults",
	Title: "fault curves (crash + churn under load, re-home and brownout)",
	Run:   func() string { return FormatFaultCurves(FaultCurves(FaultConfig{})) },
	Notes: []string{
		"(a seeded schedule crashes shards mid-window at 0.9x saturation while",
		" sessions churn; the detector quarantines each frozen heartbeat at the",
		" next flush boundary, re-homes voice-first and browns out background;",
		" the zero-fault row is bit-identical to the E14 pipeline at 0.9x)",
	},
	Points: faultPoints(),
	Gate: &Gate{
		Name:  "fault",
		Doc:   "E16 mini drill (1 of 4 shards crashed mid-load plus an 8-session churn storm, 0.9x saturation, qos-priority): voice loss <= 1%, every corpse session re-homed with none lost, voice delivery back at 99% within 3 windows of the crash",
		Check: faultGate,
	},
}

// faultDrill is the small drill the E16/E17 bench sweeps and the fault,
// heal and obs gates all run: 4 shards, 24 short windows, the first crash
// in window 8.
func faultDrill(sessions int) FaultConfig {
	return FaultConfig{
		Wire:        WireConfig{Shards: 4, Sessions: sessions, WindowCycles: 4096, Windows: 24},
		FaultWindow: 8,
	}
}

// faultPoints is the E16 bench sweep: crash count x churn rate under both
// policies. voice_delivered_frac participates in the tight baseline gate
// (voice must ride out a single-shard crash under qos-priority); the
// re-home/recovery figures are informational virtual-time cycle counts.
func faultPoints() []Point {
	cfg := faultDrill(96)
	cfg.fill()
	var pts []Point
	for _, pol := range cfg.Policies {
		for _, row := range cfg.Rows {
			pts = append(pts, Point{
				Name: fmt.Sprintf("FaultCurves/%s/crashes=%d_churn=%d", pol, row.Crashes, row.Churn),
				Run: func() []Metric {
					p := FaultPointRun(pol, row, cfg.Wire.saturation(), cfg)
					return append(p.metrics(),
						Metric{"voice_wire_p99_cycles", float64(qos.CellOf(p.Classes, qos.Voice).P99)},
						Metric{"rehome_cycles", float64(p.RehomeTook)},
						Metric{"recovery_cycles", float64(p.RecoveryCycles)},
						Metric{"recovered", flag01(p.Recovered)},
						Metric{"sessions_churned", float64(p.Churned)})
				},
			})
		}
	}
	return pts
}

// metrics are the figures every fault drill reports, E16 and E17 alike.
func (p FaultPoint) metrics() []Metric {
	v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
	return []Metric{
		{"offered_Mbps", p.TotalOfferedMbps},
		{"wire_Mbps", p.WireMbps},
		{"voice_delivered_frac", 1 - v.LossFrac},
		{"background_loss_pct", 100 * bg.LossFrac},
		{"sessions_moved", float64(p.Moved)},
		{"sessions_lost", float64(p.Lost)},
	}
}

// FaultRow is one fault intensity: how many distinct shards crash
// (in successive windows, mid-window) and how many sessions churn
// (close + re-open) at every window boundary once faults begin.
type FaultRow struct {
	Crashes int
	Churn   int
}

// FaultConfig parameterizes FaultCurves.
type FaultConfig struct {
	// Wire is the base pipeline configuration (cluster shape, mix,
	// windows, seed). Defaults differ from E14's in two places: Shards
	// defaults to 4 (a 2-shard cluster cannot absorb the 2-crash row)
	// and Sessions to 256 (8 runs per table).
	Wire WireConfig
	// Offered is the fixed load as a fraction of saturation (default
	// 0.9).
	Offered float64
	// Rows are the fault intensities (default none / 1 crash / 1 crash +
	// churn 8 / 2 crashes + churn 8).
	Rows []FaultRow
	// Policies are swept per row (default first-idle, qos-priority).
	Policies []string
	// FaultWindow is the window the first crash lands in; churn starts
	// at the same boundary (default Windows/3).
	FaultWindow int
	// VoiceRecovered is the per-window voice delivered fraction that
	// counts as recovered (default 0.99).
	VoiceRecovered float64
}

func (c *FaultConfig) fill() {
	if c.Wire.Shards <= 0 {
		c.Wire.Shards = 4
	}
	if c.Wire.Sessions <= 0 {
		c.Wire.Sessions = 256
	}
	if c.Wire.Windows <= 0 {
		c.Wire.Windows = 36
	}
	c.Wire.fill()
	if c.Offered <= 0 {
		c.Offered = 0.9
	}
	if len(c.Rows) == 0 {
		c.Rows = []FaultRow{{0, 0}, {1, 0}, {1, 8}, {2, 8}}
	}
	if len(c.Policies) == 0 {
		c.Policies = []string{"first-idle", "qos-priority"}
	}
	if c.FaultWindow <= 0 {
		c.FaultWindow = c.Wire.Windows / 3
		if c.FaultWindow == 0 {
			c.FaultWindow = 1
		}
	}
	if c.VoiceRecovered <= 0 {
		c.VoiceRecovered = 0.99
	}
}

// FaultPoint is one (policy, fault intensity) measurement.
type FaultPoint struct {
	Policy string
	Row    FaultRow
	// WirePoint carries the per-class verdict/latency cells, digests and
	// cluster cycles, built by the same reduction as the E14 table.
	WirePoint
	// Schedule is the fault plan the row ran under.
	Schedule faults.Schedule
	// Events is the heal controller's trail; FailOvers/Moved/Lost/
	// RehomeTook aggregate its fail-overs (Took is the worst single one).
	Events     []fleet.Event
	FailOvers  int
	Moved      int
	Lost       int
	RehomeTook sim.Time
	// RecoveryCycles is the worst crash-to-recovered span on the wire
	// clock: from the crash's fire point to the end of the first window
	// whose voice delivered fraction is back at VoiceRecovered.
	// Recovered reports every crash recovered within the horizon.
	RecoveryCycles sim.Time
	Recovered      bool
	// Churned counts storm-cycled sessions; Windows the per-window
	// tallies behind the recovery numbers.
	Churned uint64
	Windows []server.WindowLoad
}

// FaultResult is the E16 table.
type FaultResult struct {
	SaturationMbps float64
	Offered        float64
	Sessions       int
	Points         []FaultPoint // policy-major, row order
}

// FaultCurves runs E16: for each policy and fault intensity it starts a
// fresh loopback server with the fault plane wired in and replays the
// fixed-load mix through it.
func FaultCurves(cfg FaultConfig) FaultResult {
	cfg.fill()
	sat := cfg.Wire.saturation()
	res := FaultResult{SaturationMbps: sat, Offered: cfg.Offered, Sessions: cfg.Wire.Sessions}
	for _, pol := range cfg.Policies {
		for _, row := range cfg.Rows {
			res.Points = append(res.Points, FaultPointRun(pol, row, sat, cfg))
		}
	}
	return res
}

// FaultPointRun measures one (policy, fault intensity) point.
func FaultPointRun(policy string, row FaultRow, satMbps float64, cfg FaultConfig) FaultPoint {
	return faultPointRun(policy, row, satMbps, cfg, nil, nil)
}

// faultPointRun is FaultPointRun with two hooks: arm adjusts the heal
// policy before the server boots (E17 sets the restart source through
// it), and inspect runs while the server is still open (the obs gate
// reads the flight-recorder postmortems).
func faultPointRun(policy string, row FaultRow, satMbps float64, cfg FaultConfig,
	arm func(*fleet.HealPolicy), inspect func(*server.Server)) FaultPoint {
	cfg.fill()
	wire := cfg.Wire
	wire.Policy = policy

	sched := faults.Schedule{Seed: wire.Seed}
	if row.Crashes > 0 {
		var err error
		sched, err = faults.Plan(faults.PlanConfig{
			Seed:         wire.Seed,
			Shards:       wire.Shards,
			Windows:      wire.Windows,
			Crashes:      row.Crashes,
			FaultWindow:  cfg.FaultWindow,
			WindowCycles: wire.WindowCycles,
		})
		if err != nil {
			panic(err) // experiment drivers pass literal configurations
		}
	}
	fp := &fleet.HealPolicy{
		Schedule:        sched,
		OfferedMbps:     cfg.Offered * satMbps,
		SatMbpsPerShard: satMbps / float64(wire.Shards),
		Shares:          arrivals.ClassShares(wire.Mix),
		WindowCycles:    wire.WindowCycles,
	}
	if arm != nil {
		arm(fp)
	}

	point := FaultPoint{Policy: policy, Row: row, Schedule: sched}
	point.WirePoint = runWire(wire, cfg.Offered, satMbps, fp,
		server.LoadConfig{WindowTallies: true, ChurnSessions: row.Churn, ChurnFrom: cfg.FaultWindow},
		func(srv *server.Server, load server.LoadResult) {
			point.Events = srv.Events()
			point.Churned = load.Churned
			point.Windows = load.Windows
			if inspect != nil {
				inspect(srv)
			}
		})
	for _, ev := range point.Events {
		if ev.Kind != fleet.FailedOver {
			continue
		}
		point.FailOvers++
		point.Moved += ev.Moved
		point.Lost += ev.Lost
		point.RehomeTook = max(point.RehomeTook, ev.Took)
	}
	point.RecoveryCycles, point.Recovered = recoveryOf(sched, wire.WindowCycles, cfg.VoiceRecovered, point.Windows)
	return point
}

// recoveryOf derives the worst crash recovery span: for each scheduled
// crash, the wire-clock distance from its fire point to the end of the
// first window (at or after the crash window) whose voice delivered
// fraction is back at the threshold. A crash with no such window inside
// the horizon reports recovered == false.
func recoveryOf(sched faults.Schedule, windowCycles sim.Time, threshold float64, wins []server.WindowLoad) (sim.Time, bool) {
	var worst sim.Time
	recovered := true
	for _, e := range sched.Events {
		if e.Kind != faults.ShardCrash {
			continue
		}
		crashAt := sim.Time(e.Window)*windowCycles + e.Offset
		found := false
		for w := e.Window; w < len(wins); w++ {
			if wins[w].DeliveredFrac(qos.Voice) >= threshold {
				if d := sim.Time(w+1)*windowCycles - crashAt; d > worst {
					worst = d
				}
				found = true
				break
			}
		}
		if !found {
			recovered = false
		}
	}
	return worst, recovered
}

// FormatFaultCurves renders the E16 table.
func FormatFaultCurves(r FaultResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault curves (E16): loopback mccpserver at %.1fx saturation (~%.0f Mbps), %d sessions, crash + churn under load\n",
		r.Offered, r.SaturationMbps, r.Sessions)
	fmt.Fprintf(&b, "recovery = crash fire point to the first window with voice delivered back >= 99%%; rehome = worst fail-over's virtual-time cost\n")
	fmt.Fprintf(&b, "%-12s %7s %6s | %8s %8s %8s | %10s | %6s %5s %12s %12s\n",
		"policy", "crashes", "churn", "v loss%", "bg loss%", "loss%", "v p99 cyc", "moved", "lost", "rehome cyc", "recover cyc")
	for _, p := range r.Points {
		v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
		rec := cyclesOrDNF(p.RecoveryCycles, p.Recovered)
		if p.Recovered && p.Row.Crashes == 0 {
			rec = "-"
		}
		fmt.Fprintf(&b, "%-12s %7d %6d | %7.2f%% %7.2f%% %7.2f%% | %10d | %6d %5d %12d %12s\n",
			p.Policy, p.Row.Crashes, p.Row.Churn,
			100*v.LossFrac, 100*bg.LossFrac, 100*p.TotalLossFrac,
			v.P99, p.Moved, p.Lost, p.RehomeTook, rec)
	}
	return b.String()
}

// cyclesOrDNF renders a crash-to-recovered span, or DNF when the run
// never got there.
func cyclesOrDNF(cycles sim.Time, reached bool) string {
	if !reached {
		return "DNF"
	}
	return fmt.Sprintf("%d", cycles)
}

// faultGate runs the one-row loopback drill. Small on purpose: 64
// sessions, 24 short windows, one crash in a 4-shard cluster with the
// churn storm on.
func faultGate() GateReport {
	cfg := faultDrill(64)
	row := FaultRow{Crashes: 1, Churn: 8}
	p := FaultPointRun("qos-priority", row, cfg.Wire.saturation(), cfg)
	v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
	const limit sim.Time = 3 * 4096
	r := GateReport{
		Summary: fmt.Sprintf("voice loss %.2f%% (limit 1%%), rehomed %d sessions across %d fail-overs with %d lost (limit 0), recovery %s cycles (limit %d)",
			100*v.LossFrac, p.Moved, p.FailOvers, p.Lost, cyclesOrDNF(p.RecoveryCycles, p.Recovered), limit),
		Details: []string{fmt.Sprintf("crashes %d churn %d: %d sessions churned, background loss %.2f%%, worst rehome %d cyc",
			row.Crashes, row.Churn, p.Churned, 100*bg.LossFrac, p.RehomeTook)},
	}
	r.require(v.LossFrac <= 0.01, "voice loss %.2f%% exceeds 1%%", 100*v.LossFrac)
	r.require(p.Lost == 0, "%d sessions lost in re-home", p.Lost)
	r.require(p.FailOvers >= 1, "the detector logged no fail-over")
	r.require(p.Recovered && p.RecoveryCycles <= limit, "voice recovery %s cycles exceeds %d",
		cyclesOrDNF(p.RecoveryCycles, p.Recovered), limit)
	return r
}
