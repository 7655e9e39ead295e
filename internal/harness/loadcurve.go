package harness

import (
	"fmt"

	"mccp/internal/arrivals"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/sim"
	"mccp/internal/verdict"
)

// This file is experiment E13: open-loop offered-load curves. Every
// earlier experiment was closed-loop — the generator refilled the device
// as fast as it drained — so loss and latency could never be reported as
// a function of offered load. Here arrival processes (internal/arrivals)
// emit packets on their own virtual-time clock into a bounded qos.Shaper
// in front of the device, and the sweep walks the offered load from deep
// underload through the saturation knee. Past the knee the background
// class's loss climbs while, under the qos-priority dispatch policy, the
// voice class holds a flat p99 and ~0% loss; the paper's first-idle
// policy is the contrast that shows what the reservation buys.

var e13 = Experiment{
	ID: "E13", Table: "loadcurve",
	Title: "open-loop load curves (loss/latency vs offered load)",
	Notes: []string{
		"(shaper drain strict-priority; offered is the fraction of saturation;",
		" loss% = arrivals never delivered; 200 expected background packets a point)",
		"(open-loop Poisson arrivals into a bounded shaper; the knee is where",
		" delivered throughput plateaus — voice must hold ~0% loss and a flat",
		" p99 past it under qos-priority while background loss climbs)",
	},
	// voice_delivered_frac participates in the tight baseline gate: it
	// must stay ~1.0 under qos-priority.
	Points: sweepPoints("LoadCurve", contrastPolicies, DefaultOfferedPoints,
		func(policy string, offered float64) []Metric {
			p := LoadPointRun(policy, offered, SaturationMbps(LoadMix, satPackets), LoadCurveConfig{BackgroundPackets: 200})
			v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
			return []Metric{
				{"offered_Mbps", p.TotalOfferedMbps},
				{"delivered_Mbps", p.TotalDeliveredMbps},
				{"voice_loss_pct", 100 * v.LossFrac},
				{"background_loss_pct", 100 * bg.LossFrac},
				{"voice_delivered_frac", 1 - v.LossFrac},
				{"voice_p99_cycles", float64(v.P99)},
				{"background_p99_cycles", float64(bg.P99)},
				{"voice_deadline_misses", float64(v.DeadlineMisses)},
				{"background_shed", float64(bg.Shed)},
			}
		}),
	Gate: &Gate{
		Name:  "load",
		Doc:   "E13 mini load curve (qos-priority, 0.25x/0.5x/1.5x saturation): voice loses at most 1% of its packets at 0.5x",
		Check: loadGate,
	},
}

// LoadMix is the E13 class mix: voice-light, background-heavy, all four
// classes present. Shares are fractions of the total offered bits; the
// voice deadline is about 4x its uncontended round trip, so expiries
// indicate real queueing, not tightness.
var LoadMix = []arrivals.ClassProfile{
	{Class: qos.Voice, Share: 0.10, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
	{Class: qos.Video, Share: 0.15, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Data, Share: 0.15, Bytes: 512, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Background, Share: 0.60, Bytes: 2048, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
}

// DefaultOfferedPoints is the E13 sweep: underload, the knee, and twice
// saturation.
var DefaultOfferedPoints = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0}

// satPackets sizes every experiment's capacity calibration: the packets
// SaturationMbps times per family.
const satPackets = 8

// SaturationMbps calibrates the device's nominal capacity for a class mix
// as the share-weighted harmonic blend of the per-family four-core
// throughputs (harmonic, because the classes time-share one device). The
// result is deterministic; packets sizes the calibration runs.
func SaturationMbps(mix []arrivals.ClassProfile, packets int) float64 {
	capGCM := MeasureThroughput(cryptocore.FamilyGCM, GCM4x1, 16, PacketBytes, packets)
	capCCM := MeasureThroughput(cryptocore.FamilyCCM, CCM4x1, 16, 256, packets)
	denom := 0.0
	for _, p := range mix {
		c := capGCM
		if p.Family == cryptocore.FamilyCCM {
			c = capCCM
		}
		denom += p.Share / c
	}
	if denom <= 0 {
		return 0
	}
	return 1 / denom
}

// LoadPoint is one (policy, offered) measurement.
type LoadPoint struct {
	Policy  string
	Offered float64 // fraction of the calibrated saturation capacity
	Classes []qos.ClassCell
	// Totals across classes.
	TotalOfferedMbps, TotalDeliveredMbps, TotalLossFrac float64
	// ArrivalDigest folds every arrival's (class, seq, time) — the
	// determinism witness.
	ArrivalDigest uint64
}

// LoadCurveConfig parameterizes an E13 load point.
type LoadCurveConfig struct {
	// BackgroundPackets sizes each point's measurement window: the window
	// is long enough for this many expected background arrivals (default
	// 200, the size every registered E13 and E18 point runs).
	BackgroundPackets int
	// Process names the arrival process (default poisson); Drain the
	// shaper drain policy (default strict-priority); Mix the class mix
	// (default LoadMix).
	Process string
	Drain   string
	Mix     []arrivals.ClassProfile
	// Capacity and QueueDepth size the shaper (defaults 8 and 32): the
	// bounded element that converts overload into shed/expired verdicts.
	Capacity, QueueDepth int
	Seed                 uint64
}

func (c *LoadCurveConfig) fill() {
	if c.BackgroundPackets <= 0 {
		c.BackgroundPackets = 200
	}
	if len(c.Mix) == 0 {
		c.Mix = LoadMix
	}
	if c.Capacity <= 0 {
		c.Capacity = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.Seed == 0 {
		c.Seed = 29
	}
}

// LoadPointRun measures one (policy, offered) point: open-loop sources
// for every class emit into a bounded shaper over a fixed virtual-time
// window, and the per-class verdict counters and latency percentiles are
// the result.
func LoadPointRun(policy string, offered, satMbps float64, cfg LoadCurveConfig) LoadPoint {
	point, _ := loadPointTraced(policy, offered, satMbps, cfg, obs.TraceConfig{}, false)
	return point
}

// loadPointTraced is LoadPointRun with an optional lifecycle tracer
// attached to the shaper and device layer (E18 reads the spans). With
// attach false it is LoadPointRun exactly; with attach true the tracer
// only reads the engine clock, so the returned LoadPoint is bit-identical
// either way — the reconciliation the obs gate checks.
func loadPointTraced(policy string, offered, satMbps float64, cfg LoadCurveConfig,
	tc obs.TraceConfig, attach bool) (LoadPoint, *obs.Tracer) {
	cfg.fill()
	// Experiment drivers pass literal mixes; a non-positive share or size
	// is a programming error (a zero share would flood at one packet per
	// cycle through MeanGap's +Inf), so fail loudly like the rest of the
	// harness fixtures.
	for _, prof := range cfg.Mix {
		if prof.Share <= 0 || prof.Bytes <= 0 {
			panic(fmt.Sprintf("harness: load-curve profile %v needs positive share and size (got share %v, %d bytes)",
				prof.Class, prof.Share, prof.Bytes))
		}
	}
	eng, cc, mc := qosDevice(policy, 17)
	shaper := qos.NewShaper(eng, cc, qos.Config{
		Capacity:   cfg.Capacity,
		QueueDepth: cfg.QueueDepth,
		Drain:      cfg.Drain,
	})
	var tr *obs.Tracer
	if attach {
		tc.Classify = func(err error) obs.Outcome { return obs.Outcome(verdict.For(err)) }
		tr = obs.NewTracer(eng, tc)
		shaper.SetTracer(tr)
		cc.SetTracer(tr)
	}

	bitsPerCycle := offered * satMbps * 1e6 / sim.DefaultFreqHz
	// The window covers cfg.BackgroundPackets expected background
	// arrivals (the background class paces the sweep's cost).
	var bgGap float64
	for _, p := range cfg.Mix {
		if p.Class == qos.Background {
			bgGap = p.MeanGap(bitsPerCycle)
		}
	}
	if bgGap == 0 {
		bgGap = cfg.Mix[len(cfg.Mix)-1].MeanGap(bitsPerCycle)
	}
	window := sim.Time(float64(cfg.BackgroundPackets) * bgGap)

	point := LoadPoint{Policy: policy, Offered: offered}
	root := arrivals.NewRand(cfg.Seed ^ 0x10AD)
	digest := arrivals.DigestInit
	// Open every class's channel before any source starts: opening drains
	// the engine, and a started source must not run ahead of the others.
	chans := make([]int, len(cfg.Mix))
	for i, prof := range cfg.Mix {
		chans[i] = openQoSChannel(eng, cc, mc, arrivalsSuite(prof))
	}
	start := eng.Now()
	until := start + window
	for idx, prof := range cfg.Mix {
		prof := prof
		ch := chans[idx]
		mk, err := arrivals.ByName(cfg.Process, prof.MeanGap(bitsPerCycle))
		if err != nil {
			panic(err) // experiment drivers pass literal process names
		}
		em := arrivals.NewEmitter(eng, prof, uint64(idx), &digest,
			func(class qos.Class, nonce, payload []byte, deadline sim.Time) {
				shaper.EncryptDeadline(class, ch, nonce, nil, payload, deadline,
					func(_ []byte, err error) {
						if !arrivals.ExpectedVerdict(err) {
							panic(err)
						}
					})
			})
		src := arrivals.NewSource(eng, mk(), root.Split(), em.Emit)
		src.Start(-1, until)
	}
	eng.Run()
	point.ArrivalDigest = digest

	var offeredSum, deliveredSum float64
	var submitted, completed uint64
	for _, prof := range cfg.Mix {
		cell := qos.NewClassCell(shaper.Stats(prof.Class),
			shaper.AppendLatencySamples(prof.Class, nil), prof.Bytes, window)
		offeredSum += cell.OfferedMbps
		deliveredSum += cell.DeliveredMbps
		submitted += cell.Submitted
		completed += cell.Completed
		point.Classes = append(point.Classes, cell)
	}
	point.TotalOfferedMbps = offeredSum
	point.TotalDeliveredMbps = deliveredSum
	if submitted > 0 {
		point.TotalLossFrac = float64(submitted-completed) / float64(submitted)
	}
	return point, tr
}

// arrivalsSuite converts a class profile to its device suite.
func arrivalsSuite(p arrivals.ClassProfile) core.Suite {
	return core.Suite{Family: p.Family, TagLen: p.TagLen, Priority: p.Class.Priority()}
}

// mixBytes indexes a mix's fixed packet sizes by class.
func mixBytes(mix []arrivals.ClassProfile) (bytes [qos.NumClasses]int) {
	for _, prof := range mix {
		bytes[prof.Class] = prof.Bytes
	}
	return bytes
}

// loadGate runs the 3-point mini load curve. It is deliberately small (a
// few hundred packets per point) so the gate costs seconds.
func loadGate() GateReport {
	sat := SaturationMbps(LoadMix, satPackets)
	const limit = 0.01
	var r GateReport
	atHalf := 1.0
	for _, offered := range []float64{0.25, 0.5, 1.5} {
		p := LoadPointRun("qos-priority", offered, sat, LoadCurveConfig{BackgroundPackets: 120})
		v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
		if p.Offered == 0.5 {
			atHalf = v.LossFrac
		}
		r.Details = append(r.Details, fmt.Sprintf("offered %.2fx: voice loss %.2f%% p99 %d cyc, background loss %.2f%%",
			p.Offered, 100*v.LossFrac, v.P99, 100*bg.LossFrac))
	}
	r.Summary = fmt.Sprintf("voice loss %.2f%% at 0.5x saturation under qos-priority (limit %.0f%%)", 100*atHalf, 100*limit)
	r.require(atHalf <= limit, "voice loss %.2f%% at 0.5x exceeds %.0f%%", 100*atHalf, 100*limit)
	return r
}
