package harness

import (
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
	"mccp/internal/radio"
	"mccp/internal/scheduler"
	"mccp/internal/sim"
)

// This file is experiment E12: the §VIII quality-of-service extension.
// A 4:1 overload mix — four closed-loop background streams of
// maximum-size packets against one latency-critical voice stream — runs
// through the qos.Shaper front end under each dispatch policy. The
// headline claim mirrors the paper's outlook: with the qos-priority
// core-reservation policy, voice keeps >= 90% of its uncontended
// throughput while the paper's first-idle policy lets bulk traffic
// head-of-line block it.

var e12 = Experiment{
	ID: "E12", Table: "qos",
	Title: "QoS priority classes (§VIII extension)",
	Notes: []string{
		"(QoS_Overload: 4 x 2048B background streams vs 1 x 256B voice stream,",
		" 24 voice packets; QoS_Drains: shaper drain fairness, sustained voice",
		" + a background burst, capacity 4, 40 voice packets;",
		" qos-priority must retain >= 90% of uncontended voice throughput;",
		" first-idle documents the head-of-line blocking the QoS layer removes)",
	},
	Points: qosPoints(),
}

// qosPoints is the E12 sweep: the 4:1 overload mix per dispatch policy
// (voice_retention >= 0.9 under qos-priority is the acceptance bar;
// first-idle stays far below), then the shaper drain policies under
// sustained voice load with a background burst behind a bounded queue.
func qosPoints() []Point {
	var pts []Point
	for _, pol := range contrastPolicies {
		pts = append(pts, Point{Name: "QoS_Overload/" + pol, Run: func() []Metric {
			s := QoSOverloadRun(pol, 24)
			ms := []Metric{{"voice_alone_Mbps", s.VoiceAloneMbps}}
			for _, c := range s.Cells {
				ms = append(ms,
					Metric{c.Class.String() + "_Mbps", c.DeliveredMbps},
					Metric{c.Class.String() + "_p50_cycles", float64(c.P50)},
					Metric{c.Class.String() + "_p95_cycles", float64(qos.PercentileOf(c.Samples, 95))},
					Metric{c.Class.String() + "_p99_cycles", float64(c.P99)},
					Metric{c.Class.String() + "_deadline_misses", float64(c.DeadlineMisses)})
			}
			return append(ms, Metric{"voice_retention", s.Retention()})
		}})
	}
	for _, drain := range qos.DrainNames() {
		pts = append(pts, Point{Name: "QoS_Drains/" + drain, Run: func() []Metric {
			r := QoSDrainRun(drain, 40)
			return []Metric{
				{"voice_p95_cycles", float64(r.VoiceP95)},
				{"background_p95_cycles", float64(r.BackgroundP95)},
				{"background_done", float64(r.BackgroundCompleted)},
				{"background_shed", float64(r.BackgroundShed)},
			}
		}})
	}
	return pts
}

// QoSVoiceBytes and QoSBackgroundBytes are the experiment's fixed packet
// sizes (a small CCM voice frame vs the Table II bulk packet size).
const (
	QoSVoiceBytes      = 256
	QoSBackgroundBytes = PacketBytes
	// QoSBackgroundStreams : 1 voice stream is the 4:1 overload mix.
	QoSBackgroundStreams = 4
	// QoSVoiceDeadline is the per-packet relative deadline tag: about 2x
	// the uncontended voice round trip, so misses indicate real queueing.
	QoSVoiceDeadline sim.Time = 8000
)

// QoSScenario is one experiment run: a dispatch policy against the
// overload mix (or the uncontended voice baseline).
type QoSScenario struct {
	Policy string // device dispatch policy used
	// VoiceAloneMbps is the baseline: the voice stream alone on the
	// device (QoSOverloadRun sets it).
	VoiceAloneMbps float64
	// Cells holds one cell per active class. Each cell's window is the
	// class's own active interval (first dispatch to last completion), so
	// DeliveredMbps is the class's throughput while it was running; the
	// cells keep their latency samples (the table also prints p95).
	Cells []qos.ClassCell
}

// Retention returns the voice throughput under overload relative to the
// uncontended baseline (1.0 = no degradation).
func (s QoSScenario) Retention() float64 {
	if s.VoiceAloneMbps == 0 {
		return 0
	}
	return qos.CellOf(s.Cells, qos.Voice).DeliveredMbps / s.VoiceAloneMbps
}

// qosDevice is the shared experiment fixture: one device under a named
// dispatch policy with queueing on, firmware settled.
func qosDevice(policy string, seed uint64) (*sim.Engine, *radio.CommController, *radio.MainController) {
	pol, err := scheduler.ByName(policy)
	if err != nil {
		// Experiment drivers pass literal policy names; a typo is a
		// programming error, not user input.
		panic(err)
	}
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{Cores: 4, Policy: pol, QueueRequests: true})
	cc := radio.NewCommController(dev)
	mc := radio.NewMainController(dev, seed)
	eng.Run()
	return eng, cc, mc
}

// openQoSChannel provisions a 128-bit key and opens a channel with the
// suite, draining the engine; it panics on error like the rest of the
// experiment fixtures.
func openQoSChannel(eng *sim.Engine, cc *radio.CommController, mc *radio.MainController, s core.Suite) int {
	keyID, _, err := mc.ProvisionKey(16)
	if err != nil {
		panic(err)
	}
	ch := 0
	cc.OpenChannel(s, keyID, func(c int, e error) {
		if e != nil {
			panic(e)
		}
		ch = c
	})
	eng.Run()
	return ch
}

// Channel suites of the two E12 streams.
var (
	qosVoiceSuite = core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8, Priority: qos.Voice.Priority()}
	qosBulkSuite  = core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16, Priority: qos.Background.Priority()}
)

// closedLoop keeps one stream of a class in flight on ch: every
// completion submits the next packet (tagged with a deadline budget
// cycles ahead, 0 = none) for as long as more() holds.
func closedLoop(eng *sim.Engine, shaper *qos.Shaper, class qos.Class, ch int, nonce, payload []byte,
	budget sim.Time, more func() bool) {
	if !more() {
		return
	}
	var deadline sim.Time
	if budget > 0 {
		deadline = eng.Now() + budget
	}
	shaper.EncryptDeadline(class, ch, nonce, nil, payload, deadline, func(_ []byte, err error) {
		if err != nil {
			panic(err)
		}
		closedLoop(eng, shaper, class, ch, nonce, payload, budget, more)
	})
}

// runQoS drives the overload mix — voicePackets closed-loop voice frames
// against backgroundStreams saturating bulk streams — through one device
// and returns the scenario. Everything is closed-loop and virtual-time,
// so the result is a pure function of the arguments.
func runQoS(policy string, voicePackets, backgroundStreams int) QoSScenario {
	eng, cc, mc := qosDevice(policy, 17)
	shaper := qos.NewShaper(eng, cc, qos.Config{})
	voiceCh := openQoSChannel(eng, cc, mc, qosVoiceSuite)
	bgCh := 0
	if backgroundStreams > 0 {
		bgCh = openQoSChannel(eng, cc, mc, qosBulkSuite)
	}

	// The background load keeps saturating until the voice measurement
	// finishes, then the run drains.
	voiceDone := false
	bgNonce, bgPayload := make([]byte, 12), make([]byte, QoSBackgroundBytes)
	for i := 0; i < backgroundStreams; i++ {
		closedLoop(eng, shaper, qos.Background, bgCh, bgNonce, bgPayload, 0, func() bool { return !voiceDone })
	}
	closedLoop(eng, shaper, qos.Voice, voiceCh, make([]byte, 13), make([]byte, QoSVoiceBytes), QoSVoiceDeadline,
		func() bool {
			voiceDone = voicePackets == 0
			voicePackets--
			return !voiceDone
		})
	eng.Run()

	scen := QoSScenario{Policy: policy}
	for _, c := range []struct {
		class qos.Class
		bytes int
	}{{qos.Voice, QoSVoiceBytes}, {qos.Background, QoSBackgroundBytes}} {
		st := shaper.Stats(c.class)
		if st.Submitted == 0 {
			continue
		}
		samples := shaper.AppendLatencySamples(c.class, nil)
		cell := qos.NewClassCell(st, samples, c.bytes, st.LastCompletion-st.FirstDispatch)
		cell.Samples = samples
		scen.Cells = append(scen.Cells, cell)
	}
	return scen
}

// QoSOverloadRun measures one E12 overload point: the voice stream
// alone on the device, then the 4:1 overload mix under policy.
// voicePackets sizes both runs (24 gives stable figures in well under a
// second).
func QoSOverloadRun(policy string, voicePackets int) QoSScenario {
	base := runQoS("first-idle", voicePackets, 0)
	s := runQoS(policy, voicePackets, QoSBackgroundStreams)
	s.VoiceAloneMbps = qos.CellOf(base.Cells, qos.Voice).DeliveredMbps
	return s
}

// QoSDrainRow is one drain policy's fairness measurement.
type QoSDrainRow struct {
	Drain string
	// VoiceP95 and BackgroundP95 are per-class latency percentiles under
	// a shaper whose capacity equals the core count (so the shaper's
	// queues, not the device's, do the ordering).
	VoiceP95, BackgroundP95 sim.Time
	// BackgroundCompleted counts background packets finished before the
	// sustained voice load ended; BackgroundShed counts admission drops
	// at the bounded class queue.
	BackgroundCompleted, BackgroundShed uint64
}

// QoSDrainRun measures one drain policy's row of the fairness
// comparison: sustained voice load with a burst of background packets
// behind a bounded queue. Strict priority starves background until the
// voice load ends (and sheds the burst overflow); weighted-fair drains it
// at the configured ratio with bounded wait.
func QoSDrainRun(drain string, voicePackets int) QoSDrainRow {
	eng, cc, mc := qosDevice("first-idle", 23)
	shaper := qos.NewShaper(eng, cc, qos.Config{
		Capacity:   4,
		QueueDepth: 8,
		Drain:      drain,
	})
	voiceCh := openQoSChannel(eng, cc, mc, qosVoiceSuite)
	bgCh := openQoSChannel(eng, cc, mc, qosBulkSuite)

	// Six sustained voice streams over a capacity of four keep the
	// voice queue backlogged, so the drain policy decides every slot.
	voiceNonce, voicePayload := make([]byte, 13), make([]byte, QoSVoiceBytes)
	for i := 0; i < 6; i++ {
		closedLoop(eng, shaper, qos.Voice, voiceCh, voiceNonce, voicePayload, 0, func() bool {
			voicePackets--
			return voicePackets >= 0
		})
	}
	// A 12-packet background burst against an 8-deep class queue:
	// 4 shed immediately, the rest wait on the drain policy.
	bgNonce := make([]byte, 12)
	bgPayload := make([]byte, QoSBackgroundBytes)
	for i := 0; i < 12; i++ {
		shaper.Encrypt(qos.Background, bgCh, bgNonce, nil, bgPayload, func(_ []byte, err error) {
			if err != nil && err != qos.ErrShed {
				panic(err)
			}
		})
	}
	eng.Run()
	bg := shaper.Stats(qos.Background)
	return QoSDrainRow{
		Drain:               drain,
		VoiceP95:            shaper.LatencyPercentile(qos.Voice, 95),
		BackgroundP95:       shaper.LatencyPercentile(qos.Background, 95),
		BackgroundCompleted: bg.Completed,
		BackgroundShed:      bg.Shed,
	}
}
