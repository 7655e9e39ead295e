package harness

import (
	"reflect"
	"testing"

	"mccp/internal/qos"
)

// TestQoSVoiceRetention is the E12 acceptance gate: under the 4:1
// overload mix, the qos-priority policy keeps voice at >= 90% of its
// uncontended throughput while the paper's first-idle policy falls well
// below.
func TestQoSVoiceRetention(t *testing.T) {
	scenarios := []QoSScenario{QoSOverloadRun("first-idle", 24), QoSOverloadRun("qos-priority", 24)}
	for _, s := range scenarios {
		if s.VoiceAloneMbps <= 0 {
			t.Fatalf("%s: no uncontended baseline", s.Policy)
		}
	}
	fi, qp := scenarios[0].Retention(), scenarios[1].Retention()
	t.Logf("voice retention: first-idle %.0f%%, qos-priority %.0f%% (baseline %.0f Mbps)",
		100*fi, 100*qp, scenarios[0].VoiceAloneMbps)
	if qp < 0.9 {
		t.Errorf("qos-priority retention %.2f, want >= 0.90", qp)
	}
	if fi >= 0.9 {
		t.Errorf("first-idle retention %.2f, want < 0.90 (head-of-line blocking expected)", fi)
	}
	// The reservation trades bulk throughput for voice latency; background
	// must still make real progress (not starve) under qos-priority.
	for _, s := range scenarios {
		bg := qos.CellOf(s.Cells, qos.Background)
		if bg.Completed == 0 {
			t.Errorf("%s: background starved", s.Policy)
		}
		if v := qos.CellOf(s.Cells, qos.Voice); v.P99 == 0 || v.P50 > v.P99 {
			t.Errorf("%s: bad voice percentiles %+v", s.Policy, v)
		}
	}
	// Deadline tags: under first-idle the queued voice frames blow their
	// deadline; under qos-priority none do.
	if m := qos.CellOf(scenarios[0].Cells, qos.Voice).DeadlineMisses; m == 0 {
		t.Error("first-idle: expected deadline misses under overload")
	}
	if m := qos.CellOf(scenarios[1].Cells, qos.Voice).DeadlineMisses; m != 0 {
		t.Errorf("qos-priority: %d deadline misses, want 0", m)
	}
}

// TestQoSTableDeterministic: every E12 overload point is a pure function
// of its configuration (virtual time only, fixed seeds).
func TestQoSTableDeterministic(t *testing.T) {
	for _, pol := range contrastPolicies {
		if a, b := QoSOverloadRun(pol, 12), QoSOverloadRun(pol, 12); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s overload not deterministic:\n%+v\n%+v", pol, a, b)
		}
	}
}

// TestQoSDrainComparison pins the fairness contrast: weighted-fair
// serves the background burst alongside sustained voice (bounded wait),
// strict priority makes it wait longer for voice's benefit, and both
// shed the burst overflow at the bounded class queue.
func TestQoSDrainComparison(t *testing.T) {
	byName := map[string]QoSDrainRow{}
	for _, drain := range qos.DrainNames() {
		byName[drain] = QoSDrainRun(drain, 40)
	}
	if len(byName) != 3 {
		t.Fatalf("rows = %d", len(byName))
	}
	strict, wfq, drr := byName[qos.DrainStrict], byName[qos.DrainWeightedFair], byName[qos.DrainDRRBytes]
	if strict.BackgroundShed != 4 || wfq.BackgroundShed != 4 || drr.BackgroundShed != 4 {
		t.Errorf("burst overflow: strict shed %d, wfq shed %d, drr shed %d, want 4 each",
			strict.BackgroundShed, wfq.BackgroundShed, drr.BackgroundShed)
	}
	if strict.BackgroundCompleted != 8 || wfq.BackgroundCompleted != 8 || drr.BackgroundCompleted != 8 {
		t.Errorf("admitted background must complete: %d/%d/%d",
			strict.BackgroundCompleted, wfq.BackgroundCompleted, drr.BackgroundCompleted)
	}
	// DRR-by-bytes under the default voice-heavy weights is at least as
	// voice-friendly as weighted-fair in *bytes* (an 8:1 byte ratio is far
	// stricter than 8:1 in packets when background packets are 8x larger),
	// but must never leave background worse off than strict priority.
	if drr.BackgroundP95 > strict.BackgroundP95 {
		t.Errorf("drr-bytes bg p95 %d worse than strict %d", drr.BackgroundP95, strict.BackgroundP95)
	}
	// Strict priority privileges voice latency; weighted-fair trades some
	// of it for background service.
	if strict.VoiceP95 >= wfq.VoiceP95 {
		t.Errorf("strict voice p95 %d should beat weighted-fair %d",
			strict.VoiceP95, wfq.VoiceP95)
	}
	if wfq.BackgroundP95 >= strict.BackgroundP95 {
		t.Errorf("weighted-fair bg p95 %d should beat strict %d",
			wfq.BackgroundP95, strict.BackgroundP95)
	}
}
