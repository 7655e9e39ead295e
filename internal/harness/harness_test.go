package harness

import (
	"testing"

	"mccp/internal/aes"
	"mccp/internal/cryptocore"
)

func TestTheoreticalMatchesPaperFormulas(t *testing.T) {
	// Every theoretical cell of Table II must come out of the loop
	// formulas exactly as printed (the paper rounds down).
	for _, c := range paperTableII {
		got := TheoreticalMbps(c.family, c.m, c.size)
		// The paper rounds the per-core figure down before multiplying by
		// the stream count, so allow up to one Mbps per stream of slack.
		slack := float64(c.m.Streams)
		if got < c.theoretical || got >= c.theoretical+slack+0.5 {
			t.Errorf("%v %s %v: theoretical = %.2f, want [%.0f, %.0f)",
				c.family, c.m.Name, c.size, got, c.theoretical, c.theoretical+slack+0.5)
		}
	}
}

func TestLoopCycleFormulas(t *testing.T) {
	// T_GCM = 49, T_CCM2 = 55, T_CCM1 = 104 (128-bit keys); +8/+16 per AES.
	if got := TheoreticalLoopCycles(cryptocore.FamilyGCM, false, aes.Key128); got != 49 {
		t.Errorf("T_GCM = %v", got)
	}
	if got := TheoreticalLoopCycles(cryptocore.FamilyCCM, true, aes.Key128); got != 55 {
		t.Errorf("T_CCM2 = %v", got)
	}
	if got := TheoreticalLoopCycles(cryptocore.FamilyCCM, false, aes.Key128); got != 104 {
		t.Errorf("T_CCM1 = %v", got)
	}
	if got := TheoreticalLoopCycles(cryptocore.FamilyGCM, false, aes.Key192); got != 57 {
		t.Errorf("T_GCM/192 = %v", got)
	}
	if got := TheoreticalLoopCycles(cryptocore.FamilyCCM, false, aes.Key256); got != 136 {
		t.Errorf("T_CCM1/256 = %v", got)
	}
}

// TestMeasuredShapeGCM128 is the headline shape check: the measured 2 KB
// figures must sit in the right order and within ~12% of the paper's 2 KB
// column for the flagship cells.
func TestMeasuredShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device measurement")
	}
	const packets = 10
	within := func(name string, got, want, tolPct float64) {
		lo, hi := want*(1-tolPct/100), want*(1+tolPct/100)
		if got < lo || got > hi {
			t.Errorf("%s = %.0f Mbps, want %.0f ±%.0f%%", name, got, want, tolPct)
		} else {
			t.Logf("%s = %.0f Mbps (paper 2KB: %.0f)", name, got, want)
		}
	}
	// Paper methodology: single-instance end-to-end throughput, scaled by
	// the number of parallel instances (E2's paper_methodology_Mbps).
	gcm1 := MeasureThroughput(cryptocore.FamilyGCM, GCM1, 16, PacketBytes, packets)
	ccm1 := MeasureThroughput(cryptocore.FamilyCCM, CCM1, 16, PacketBytes, packets)
	ccm2 := MeasureThroughput(cryptocore.FamilyCCM, CCM2, 16, PacketBytes, packets)
	gcm4 := 4 * gcm1
	ccm4 := 4 * ccm1
	ccm22 := 2 * ccm2

	within("GCM 1-core", gcm1, 437, 10)
	within("GCM 4x1", gcm4, 1748, 10)
	within("CCM 1-core", ccm1, 214, 10)
	within("CCM 2-core", ccm2, 393, 10)
	within("CCM 4x1", ccm4, 856, 10)
	within("CCM 2x2", ccm22, 786, 10)

	// Ordering claims from §VII.A: one-core-per-packet beats two-core
	// splitting for throughput; splitting beats a single core.
	if !(ccm4 > ccm22) {
		t.Errorf("CCM 4x1 (%.0f) must beat 2x2 (%.0f): the paper's packet-on-one-core advantage", ccm4, ccm22)
	}
	if !(ccm2 > ccm1*1.6) {
		t.Errorf("CCM 2-core (%.0f) should be ~1.8x one core (%.0f)", ccm2, ccm1)
	}

	// The contention-aware system measurement (not available to the paper)
	// must still clear 3x on four streams for GCM.
	gcmSys := MeasureThroughput(cryptocore.FamilyGCM, GCM4x1, 16, PacketBytes, 4*packets)
	if gcmSys < 3*gcm1 {
		t.Errorf("system GCM 4x1 = %.0f, want >= 3x single (%.0f)", gcmSys, 3*gcm1)
	}
	t.Logf("system-level GCM 4x1 with crossbar contention: %.0f Mbps", gcmSys)
}

// TestLatencyTradeoffCCM verifies §VII.A's observation: CCM 4x1 delivers
// about twice the throughput of 2x2, at about twice the packet latency.
func TestLatencyTradeoffCCM(t *testing.T) {
	if testing.Short() {
		t.Skip("full-device measurement")
	}
	four := MeasureLatency(CCM4x1, 12)
	two := MeasureLatency(CCM2x2, 12)
	ratioLat := four.MeanLatencyCyc / two.MeanLatencyCyc
	if ratioLat < 1.5 || ratioLat > 2.3 {
		t.Errorf("latency ratio 4x1/2x2 = %.2f, want ~2 (paper: 'almost two times greater')", ratioLat)
	}
	if four.ThroughputMbps <= two.ThroughputMbps {
		t.Errorf("4x1 throughput (%.0f) must exceed 2x2 (%.0f)", four.ThroughputMbps, two.ThroughputMbps)
	}
	t.Logf("4x1: %.0f Mbps, mean latency %.0f cyc; 2x2: %.0f Mbps, mean latency %.0f cyc",
		four.ThroughputMbps, four.MeanLatencyCyc, two.ThroughputMbps, two.MeanLatencyCyc)
}
