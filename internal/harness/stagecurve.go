package harness

import (
	"fmt"
	"reflect"
	"strings"

	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// This file is experiment E18: stage attribution. E13 reports per-class
// end-to-end latency percentiles; E18 re-runs the same open-loop sweep
// with the lifecycle tracer attached at sample rate 1 and decomposes
// every delivered packet's latency into the five pipeline stages (class
// queue, scheduler, crossbar upload, core service, output drain). The
// stages tile each span exactly — their durations sum to the
// enqueue-to-completion time — so the table's per-stage numbers reconcile
// with E13's percentiles bit-for-bit: the tracer only reads the engine
// clock, and the traced run's LoadPoint is identical to the untraced
// one. Below saturation the core stage dominates; past the knee the
// queue stage absorbs the growth, and under qos-priority the voice
// class's queue component stays flat while background's explodes — the
// stage-level view of what the reservation buys.

var e18 = Experiment{
	ID: "E18", Table: "stages",
	Title: "stage attribution (traced per-class latency decomposition)",
	Run:   func() string { return FormatStageAttribution(StageAttribution(StageCurveConfig{})) },
	Notes: []string{
		"(the E13 sweep replayed with the lifecycle tracer at sample rate 1;",
		" each delivered packet's latency tiles exactly into class queue,",
		" scheduler, crossbar upload, core service and drain, so the traced",
		" percentiles reconcile bit-for-bit with E13's and the table shows",
		" where qos-priority buys voice its headroom: the queue stage)",
	},
	// Three points per policy: where each class's p99 is spent. The
	// cells are E13's (the traced run reconciles bit-for-bit);
	// delivered_Mbps gates as throughput, the cycle counts ride ungated.
	Points: sweepPoints("StageAttribution", []string{"first-idle", "qos-priority"}, []float64{0.5, 1.0, 1.5},
		func(policy string, offered float64) []Metric {
			p := StagePointRun(policy, offered, SaturationMbps(LoadMix, 8), LoadCurveConfig{BackgroundPackets: 200})
			v, bg := p.Cells[qos.Voice], p.Cells[qos.Background]
			return []Metric{
				{"delivered_Mbps", p.TotalDeliveredMbps},
				{"spans_traced", float64(p.Spans)},
				{"voice_p99_cycles", float64(v.TotalP99)},
				{"voice_queue_p99_cycles", float64(v.P99[obs.StageQueue])},
				{"voice_core_p99_cycles", float64(v.P99[obs.StageCore])},
				{"background_p99_cycles", float64(bg.TotalP99)},
				{"background_queue_p99_cycles", float64(bg.P99[obs.StageQueue])},
			}
		}),
	Gate: &Gate{
		Name:  "obs",
		Doc:   "E18 traced point (qos-priority, 1.5x saturation, sample rate 1): two traced runs bit-identical, traced percentiles equal the untraced E13 point's, stage sums tile the end-to-end latency exactly, and the one-crash drill freezes >= 1 postmortem (the disabled tracer's time cost is TestTracingOffOverhead's)",
		Check: obsGate,
	},
}

// DefaultStagePoints is the E18 sweep: underload, the knee, and twice
// saturation.
var DefaultStagePoints = []float64{0.25, 0.5, 1.0, 1.5, 2.0}

// StageCell is one class's stage decomposition at one load point,
// computed over delivered (OutcomeOK) spans only — the same population
// as E13's latency percentiles.
type StageCell struct {
	Class qos.Class
	// Spans counts the delivered spans decomposed.
	Spans uint64
	// TotalP50/TotalP99 are percentiles of span end-to-end durations —
	// bit-identical to the E13 cell's P50/P99 (same samples, same
	// nearest-rank method).
	TotalP50, TotalP99 sim.Time
	// P50/P99 are per-stage duration percentiles, indexed by obs.Stage.
	// Stage percentiles are marginal (computed per stage), so they need
	// not sum to the total percentiles; the Sum fields reconcile instead.
	P50, P99 [obs.NumStages]sim.Time
	// SumTotal is the integer sum of every delivered span's duration;
	// SumStages the per-stage sums. SumTotal == Σ SumStages exactly —
	// the tiling identity the obs smoke gate asserts.
	SumTotal  sim.Time
	SumStages [obs.NumStages]sim.Time
}

// StagePoint is one (policy, offered) traced measurement: the E13 point
// (bit-identical to the untraced run) plus the stage decomposition.
type StagePoint struct {
	LoadPoint
	// TraceDigest fingerprints the span stream (host timestamps
	// excluded); Spans counts every recorded span, all outcomes.
	TraceDigest uint64
	Spans       int
	// Cells is indexed by class (zero for a class outside the mix).
	Cells [qos.NumClasses]StageCell
}

// StageCurveConfig parameterizes StageAttribution.
type StageCurveConfig struct {
	// Policies are the dispatch policies swept (default first-idle then
	// qos-priority, the E13 contrast).
	Policies []string
	// Offered are the load points (default DefaultStagePoints).
	Offered []float64
	// Load carries the base E13 knobs (mix, window size, shaper, seed).
	Load LoadCurveConfig
}

func (c *StageCurveConfig) fill() {
	if len(c.Policies) == 0 {
		c.Policies = []string{"first-idle", "qos-priority"}
	}
	if len(c.Offered) == 0 {
		c.Offered = DefaultStagePoints
	}
	c.Load.fill()
}

// StageCurveResult is the full E18 sweep.
type StageCurveResult struct {
	SaturationMbps float64
	Points         []StagePoint // policy-major, offered ascending
}

// StageAttribution runs E18: the E13 sweep with the tracer attached,
// every delivered packet's latency decomposed by stage. Deterministic:
// the sampler is seeded, every duration is virtual-time, and the traced
// pipeline is bit-identical to the untraced one.
func StageAttribution(cfg StageCurveConfig) StageCurveResult {
	cfg.fill()
	sat := SaturationMbps(cfg.Load.Mix, cfg.Load.SatPackets)
	res := StageCurveResult{SaturationMbps: sat}
	for _, pol := range cfg.Policies {
		for _, offered := range cfg.Offered {
			res.Points = append(res.Points, StagePointRun(pol, offered, sat, cfg.Load))
		}
	}
	return res
}

// StagePointRun measures one (policy, offered) point with the tracer on
// at sample rate 1 and reduces the span stream to per-class stage cells.
func StagePointRun(policy string, offered, satMbps float64, cfg LoadCurveConfig) StagePoint {
	cfg.fill()
	point, tr := loadPointTraced(policy, offered, satMbps, cfg,
		obs.TraceConfig{Enabled: true, Sample: 1, Seed: cfg.Seed}, true)
	sp := StagePoint{LoadPoint: point, TraceDigest: tr.Digest()}
	spans := tr.Spans()
	sp.Spans = len(spans)

	var totals [qos.NumClasses][]sim.Time
	var stages [qos.NumClasses][obs.NumStages][]sim.Time
	for i := range spans {
		s := &spans[i]
		if s.Outcome != obs.OutcomeOK {
			continue
		}
		c := qos.Class(s.Class)
		totals[c] = append(totals[c], s.Total())
		for k, d := range s.Stages() {
			stages[c][k] = append(stages[c][k], d)
		}
	}
	for _, cell := range point.Classes {
		c := cell.Class
		sc := StageCell{Class: c, Spans: uint64(len(totals[c]))}
		sc.TotalP50 = qos.PercentileOf(append([]sim.Time(nil), totals[c]...), 50)
		sc.TotalP99 = qos.PercentileOf(append([]sim.Time(nil), totals[c]...), 99)
		for _, d := range totals[c] {
			sc.SumTotal += d
		}
		for k := 0; k < obs.NumStages; k++ {
			sc.P50[k] = qos.PercentileOf(append([]sim.Time(nil), stages[c][k]...), 50)
			sc.P99[k] = qos.PercentileOf(append([]sim.Time(nil), stages[c][k]...), 99)
			for _, d := range stages[c][k] {
				sc.SumStages[k] += d
			}
		}
		sp.Cells[c] = sc
	}
	return sp
}

// FormatStageAttribution renders the E18 table: per (policy, offered),
// the voice and background classes' p99 decomposed by stage, with the
// mean stage share of total delivered latency alongside.
func FormatStageAttribution(r StageCurveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stage attribution (E18): per-class latency decomposed by pipeline stage, saturation ~%.0f Mbps\n",
		r.SaturationMbps)
	b.WriteString("stages tile enqueue->completion exactly (queue+sched+xbar_up+core+drain == total); delivered packets only, sample rate 1\n")
	fmt.Fprintf(&b, "%-14s %8s %-12s %7s | %8s %8s | p99 by stage: %8s %8s %8s %8s %8s\n",
		"policy", "offered", "class", "spans", "p50 cyc", "p99 cyc",
		"queue", "sched", "xbar_up", "core", "drain")
	for _, p := range r.Points {
		for _, class := range []qos.Class{qos.Voice, qos.Background} {
			sc := p.Cells[class]
			fmt.Fprintf(&b, "%-14s %7.2fx %-12s %7d | %8d %8d | %14s %8d %8d %8d %8d\n",
				p.Policy, p.Offered, sc.Class, sc.Spans,
				sc.TotalP50, sc.TotalP99,
				fmt.Sprintf("%8d", sc.P99[obs.StageQueue]), sc.P99[obs.StageSched],
				sc.P99[obs.StageXbarUp], sc.P99[obs.StageCore], sc.P99[obs.StageDrain])
		}
	}
	return b.String()
}

// obsGate runs the observability gate at qos-priority, 1.5x saturation
// (past the knee, so every stage is exercised: queueing, shedding, expiry
// and clean service all occur). Every clause is exact: determinism and
// reconciliation compare structs and digests bit-for-bit.
func obsGate() GateReport {
	const policy, offered = "qos-priority", 1.5
	cfg := LoadCurveConfig{BackgroundPackets: 120}
	sat := SaturationMbps(LoadMix, 8)
	var r GateReport

	// Determinism: the traced point must replay bit-identically (host
	// timestamps are excluded from the digest and absent from the point).
	a := StagePointRun(policy, offered, sat, cfg)
	b := StagePointRun(policy, offered, sat, cfg)
	deterministic := a.TraceDigest == b.TraceDigest && reflect.DeepEqual(a, b)
	r.require(deterministic, "two traced runs diverged (digests %x vs %x)", a.TraceDigest, b.TraceDigest)

	// Reconciliation: attaching the tracer must not perturb the E13
	// measurement, and the span-derived percentiles must equal the
	// shaper-derived ones exactly (same samples, same method).
	reconciled := reflect.DeepEqual(a.LoadPoint, LoadPointRun(policy, offered, sat, cfg))
	tiles := a.Spans > 0
	for _, cell := range a.Classes {
		sc := a.Cells[cell.Class]
		if sc.TotalP50 != cell.P50 || sc.TotalP99 != cell.P99 || sc.Spans != cell.Completed {
			reconciled = false
		}
		var sum sim.Time
		for _, s := range sc.SumStages {
			sum += s
		}
		tiles = tiles && sum == sc.SumTotal
	}
	r.require(reconciled, "the traced point does not reconcile with the untraced E13 point")
	r.require(tiles, "per-stage sums do not tile the end-to-end latency")

	// Flight recorder: the E16 one-crash drill must freeze at least one
	// postmortem dump (the crash freeze on the victim shard; quarantine
	// adds another).
	drill := faultDrill(64)
	postmortems := 0
	faultPointRun(policy, FaultRow{Crashes: 1, Churn: 8}, drill.Wire.saturation(), drill, nil,
		func(srv *server.Server) {
			for _, d := range srv.Cluster().Postmortems() {
				if len(d.Records) > 0 {
					postmortems++
				}
			}
		})
	r.require(postmortems >= 1, "the one-crash drill froze no postmortem")

	flag := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	r.Summary = fmt.Sprintf("determinism %s, reconcile-with-E13 %s, stage-sums %s, postmortems %d (need >= 1)",
		flag(deterministic), flag(reconciled), flag(tiles), postmortems)
	voice, bg := a.Cells[qos.Voice], a.Cells[qos.Background]
	r.Details = []string{fmt.Sprintf("offered %.2fx: %d spans (digest %x); voice p99 %d cyc (queue %d core %d), background p99 %d cyc (queue %d core %d)",
		a.Offered, a.Spans, a.TraceDigest,
		voice.TotalP99, voice.P99[obs.StageQueue], voice.P99[obs.StageCore],
		bg.TotalP99, bg.P99[obs.StageQueue], bg.P99[obs.StageCore])}
	return r
}
