package harness

import (
	"reflect"
	"testing"

	"mccp/internal/obs"
)

// TestStageSpanStreamsIdentical: the raw span streams from two traced
// runs are bit-identical once the one wall-clock field (HostNs) is
// zeroed, and the digest agrees — the replayable-postmortem guarantee.
func TestStageSpanStreamsIdentical(t *testing.T) {
	cfg := LoadCurveConfig{BackgroundPackets: 80}
	cfg.fill()
	tc := obs.TraceConfig{Enabled: true, Sample: 1, Seed: cfg.Seed}
	run := func() ([]obs.Span, uint64) {
		_, tr := loadPointTraced("qos-priority", 1.0, 1400, cfg, tc, true)
		spans := append([]obs.Span(nil), tr.Spans()...)
		for i := range spans {
			spans[i].HostNs = 0
		}
		return spans, tr.Digest()
	}
	spansA, digA := run()
	spansB, digB := run()
	if digA != digB {
		t.Errorf("digest %#x != %#x", digA, digB)
	}
	if len(spansA) == 0 {
		t.Fatal("no spans recorded")
	}
	if !reflect.DeepEqual(spansA, spansB) {
		t.Fatal("span streams differ between identical runs")
	}
}

// TestStageSamplingSubsets: a sampled run records a strict subset of the
// full run's spans with identical per-span content (IDs number every
// arrival, so the subset aligns by ID).
func TestStageSamplingSubsets(t *testing.T) {
	cfg := LoadCurveConfig{BackgroundPackets: 80}
	cfg.fill()
	run := func(sample float64) []obs.Span {
		_, tr := loadPointTraced("qos-priority", 1.0, 1400, cfg,
			obs.TraceConfig{Enabled: true, Sample: sample, Seed: cfg.Seed}, true)
		spans := append([]obs.Span(nil), tr.Spans()...)
		for i := range spans {
			spans[i].HostNs = 0
		}
		return spans
	}
	full := run(1)
	byID := make(map[uint64]obs.Span, len(full))
	for _, sp := range full {
		byID[sp.ID] = sp
	}
	sampled := run(0.25)
	if len(sampled) == 0 || len(sampled) >= len(full) {
		t.Fatalf("sampled %d of %d spans at rate 0.25", len(sampled), len(full))
	}
	for _, sp := range sampled {
		want, ok := byID[sp.ID]
		if !ok {
			t.Errorf("sampled span %d absent from full run", sp.ID)
			continue
		}
		if sp != want {
			t.Errorf("span %d differs under sampling:\n%+v\n%+v", sp.ID, sp, want)
		}
	}
}
