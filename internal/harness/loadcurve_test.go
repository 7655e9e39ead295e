package harness

import (
	"reflect"
	"testing"

	"mccp/internal/qos"
)

// loadCurveFixture holds the E13 points, every offered load per policy,
// shared by the acceptance tests (the points are deterministic, so
// sharing is safe).
var loadCurveFixture map[string][]LoadPoint

func e13Sweep(t *testing.T) map[string][]LoadPoint {
	t.Helper()
	if loadCurveFixture == nil {
		sat := SaturationMbps(LoadMix, satPackets)
		loadCurveFixture = map[string][]LoadPoint{}
		for _, pol := range contrastPolicies {
			for _, offered := range DefaultOfferedPoints {
				loadCurveFixture[pol] = append(loadCurveFixture[pol],
					LoadPointRun(pol, offered, sat, LoadCurveConfig{BackgroundPackets: 200}))
			}
		}
	}
	return loadCurveFixture
}

// TestLoadCurveShape is the E13 acceptance gate: the loss curve is
// monotone in offered load with a visible saturation knee — delivered
// throughput plateaus and background loss climbs steeply past it.
func TestLoadCurveShape(t *testing.T) {
	res := e13Sweep(t)
	if sat := SaturationMbps(LoadMix, satPackets); sat < 500 || sat > 4000 {
		t.Fatalf("implausible calibrated saturation %.0f Mbps", sat)
	}
	for _, pol := range contrastPolicies {
		pts := res[pol]
		if len(pts) != len(DefaultOfferedPoints) {
			t.Fatalf("%s: %d points", pol, len(pts))
		}
		const eps = 0.02
		for i := 1; i < len(pts); i++ {
			if pts[i].TotalLossFrac+eps < pts[i-1].TotalLossFrac {
				t.Errorf("%s: total loss not monotone: %.3f at %.2fx after %.3f at %.2fx",
					pol, pts[i].TotalLossFrac, pts[i].Offered, pts[i-1].TotalLossFrac, pts[i-1].Offered)
			}
			bg, prev := qos.CellOf(pts[i].Classes, qos.Background), qos.CellOf(pts[i-1].Classes, qos.Background)
			if bg.LossFrac+eps < prev.LossFrac {
				t.Errorf("%s: background loss not monotone at %.2fx", pol, pts[i].Offered)
			}
		}
		// Underload is lossless; deep overload loses a big background
		// fraction (the knee is visible).
		for _, p := range pts {
			bg := qos.CellOf(p.Classes, qos.Background)
			if p.Offered <= 0.75 && bg.LossFrac > 0.01 {
				t.Errorf("%s: background loses %.1f%% at %.2fx (underload must be lossless)",
					pol, 100*bg.LossFrac, p.Offered)
			}
		}
		last := pts[len(pts)-1]
		if bg := qos.CellOf(last.Classes, qos.Background); bg.LossFrac < 0.2 {
			t.Errorf("%s: background loss %.1f%% at %.2fx, want a steep climb past the knee",
				pol, 100*bg.LossFrac, last.Offered)
		}
		// Delivered throughput saturates: the 2x point delivers no more
		// than ~15% above the 1.5x point (offered grows 33%, delivery
		// has hit the ceiling).
		var at15, at2 float64
		for _, p := range pts {
			if p.Offered == 1.5 {
				at15 = p.TotalDeliveredMbps
			}
			if p.Offered == 2.0 {
				at2 = p.TotalDeliveredMbps
			}
		}
		if at15 <= 0 || at2 > 1.15*at15 {
			t.Errorf("%s: no saturation plateau: delivered %.0f at 1.5x vs %.0f at 2x", pol, at15, at2)
		}
	}
}

// TestLoadCurveVoiceProtection: under qos-priority the voice class holds
// ~0%% loss everywhere and a flat p99 past the knee, while first-idle's
// voice p99 keeps climbing — the E13 headline.
func TestLoadCurveVoiceProtection(t *testing.T) {
	res := e13Sweep(t)
	qp := res["qos-priority"]
	fi := res["first-idle"]
	for _, p := range qp {
		v := qos.CellOf(p.Classes, qos.Voice)
		if v.LossFrac > 0.01 {
			t.Errorf("qos-priority: voice loses %.2f%% at %.2fx, want <= 1%%", 100*v.LossFrac, p.Offered)
		}
	}
	// Flatness past the knee: across the points at or beyond 1.25x, the
	// voice p99 spread stays within 1.5x.
	var pastKnee []float64
	for _, p := range qp {
		if p.Offered >= 1.25 {
			pastKnee = append(pastKnee, float64(qos.CellOf(p.Classes, qos.Voice).P99))
		}
	}
	min, max := pastKnee[0], pastKnee[0]
	for _, v := range pastKnee {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min <= 0 || max/min > 1.5 {
		t.Errorf("qos-priority: voice p99 not flat past the knee: %v", pastKnee)
	}
	// The contrast: at deep overload first-idle's voice p99 exceeds
	// qos-priority's.
	lastQP, lastFI := qos.CellOf(qp[len(qp)-1].Classes, qos.Voice), qos.CellOf(fi[len(fi)-1].Classes, qos.Voice)
	if lastFI.P99 <= lastQP.P99 {
		t.Errorf("first-idle voice p99 %d should exceed qos-priority %d at 2x overload",
			lastFI.P99, lastQP.P99)
	}
}

// TestLoadPointDeterminism: a load point is a pure function of its
// configuration — counters, percentiles and the arrival digest all match
// across runs.
func TestLoadPointDeterminism(t *testing.T) {
	cfg := LoadCurveConfig{BackgroundPackets: 80}
	cfg.fill()
	sat := SaturationMbps(cfg.Mix, satPackets)
	a := LoadPointRun("qos-priority", 1.25, sat, cfg)
	b := LoadPointRun("qos-priority", 1.25, sat, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("load point not deterministic:\n%+v\n%+v", a, b)
	}
	if a.ArrivalDigest == 0 {
		t.Fatal("no arrival digest recorded")
	}
}

// TestLoadCurveProcesses: the deterministic and bursty on/off processes
// drive the same machinery; the bursty source sheds more background at
// the same mean load (clumps overflow the bounded queue).
func TestLoadCurveProcesses(t *testing.T) {
	base := LoadCurveConfig{BackgroundPackets: 150}
	base.fill()
	sat := SaturationMbps(base.Mix, satPackets)

	det := base
	det.Process = "deterministic"
	onoff := base
	onoff.Process = "onoff"
	pDet := LoadPointRun("qos-priority", 1.0, sat, det)
	pBurst := LoadPointRun("qos-priority", 1.0, sat, onoff)
	if qos.CellOf(pDet.Classes, qos.Background).Submitted == 0 || qos.CellOf(pBurst.Classes, qos.Background).Submitted == 0 {
		t.Fatal("process sweep produced no arrivals")
	}
	lossDet := qos.CellOf(pDet.Classes, qos.Background).LossFrac
	lossBurst := qos.CellOf(pBurst.Classes, qos.Background).LossFrac
	if lossBurst <= lossDet {
		t.Errorf("bursty on/off background loss %.3f should exceed deterministic %.3f at the knee",
			lossBurst, lossDet)
	}
}
