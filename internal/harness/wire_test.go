package harness

import (
	"reflect"
	"testing"

	"mccp/internal/qos"
)

// wireCurve runs the E14 wire point at five offered loads on 64
// sessions: small enough for CI while leaving the knee visible.
func wireCurve() []WirePoint {
	cfg := WireConfig{Sessions: 64, Windows: 24}
	sat := cfg.saturation()
	var pts []WirePoint
	for _, offered := range []float64{0.25, 0.5, 1.0, 1.5, 2.0} {
		pts = append(pts, WirePointRun(offered, sat, cfg))
	}
	return pts
}

func TestWireLatencyDeterministic(t *testing.T) {
	a, b := wireCurve(), wireCurve()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("E14 points not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	for i, p := range a {
		if p.ArrivalDigest == 0 {
			t.Fatalf("point %d: zero arrival digest", i)
		}
		if len(p.ServerDigests) == 0 {
			t.Fatalf("point %d: no server shard digests", i)
		}
	}
}

func TestWireLatencyCurveShape(t *testing.T) {
	res := wireCurve()
	if len(res) != 5 {
		t.Fatalf("expected 5 points, got %d", len(res))
	}
	var prevLoss float64
	for i, p := range res {
		v := qos.CellOf(p.Classes, qos.Voice)
		if v.Submitted == 0 || v.Completed == 0 {
			t.Fatalf("point %.2fx: no voice traffic (%+v)", p.Offered, v)
		}
		if v.LossFrac > 0.01 {
			t.Errorf("point %.2fx: voice loss %.2f%% above 1%%", p.Offered, 100*v.LossFrac)
		}
		if p.TotalLossFrac+1e-9 < prevLoss {
			t.Errorf("point %.2fx: total loss %.4f below previous %.4f (not monotone)",
				p.Offered, p.TotalLossFrac, prevLoss)
		}
		prevLoss = p.TotalLossFrac
		if i > 0 && p.WireMbps+1e-9 < res[i-1].WireMbps &&
			p.Offered <= 1.0 {
			t.Errorf("point %.2fx: delivered %.0f Mbps dropped below previous %.0f under saturation",
				p.Offered, p.WireMbps, res[i-1].WireMbps)
		}
	}
	under := res[0]         // 0.25x
	over := res[len(res)-1] // 2.0x
	bgU, bgO := qos.CellOf(under.Classes, qos.Background), qos.CellOf(over.Classes, qos.Background)
	if bgO.P99 <= bgU.P99 {
		t.Errorf("background wire p99 did not grow past the knee: %d -> %d cycles",
			bgU.P99, bgO.P99)
	}
	if over.TotalLossFrac <= under.TotalLossFrac {
		t.Errorf("no saturation knee: loss %.4f at 0.25x vs %.4f at 2.0x",
			under.TotalLossFrac, over.TotalLossFrac)
	}
	vU, vO := qos.CellOf(under.Classes, qos.Voice), qos.CellOf(over.Classes, qos.Voice)
	// Voice stays flat past the knee under qos-priority: its p99 may grow
	// only modestly while background's blows out.
	if vO.P99 > 2*vU.P99 {
		t.Errorf("voice wire p99 not flat past the knee: %d -> %d cycles", vU.P99, vO.P99)
	}
}
