package harness

import (
	"reflect"
	"testing"

	"mccp/internal/qos"
)

// wireTestConfig keeps the E14 table small enough for CI while leaving
// the knee visible.
func wireTestConfig() WireConfig {
	return WireConfig{
		Sessions: 64,
		Offered:  []float64{0.25, 0.5, 1.0, 1.5, 2.0},
		Windows:  24,
	}
}

func TestWireLatencyDeterministic(t *testing.T) {
	a := WireLatency(wireTestConfig())
	b := WireLatency(wireTestConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("E14 table not reproducible:\n%s\nvs\n%s",
			FormatWireLatency(a), FormatWireLatency(b))
	}
	for i, p := range a.Points {
		if p.ArrivalDigest == 0 {
			t.Fatalf("point %d: zero arrival digest", i)
		}
		if len(p.ServerDigests) == 0 {
			t.Fatalf("point %d: no server shard digests", i)
		}
	}
}

func TestWireLatencyCurveShape(t *testing.T) {
	res := WireLatency(wireTestConfig())
	t.Logf("\n%s", FormatWireLatency(res))
	if len(res.Points) != 5 {
		t.Fatalf("expected 5 points, got %d", len(res.Points))
	}
	var prevLoss float64
	for i, p := range res.Points {
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
		if i > 0 && p.WireMbps+1e-9 < res.Points[i-1].WireMbps &&
			p.Offered <= 1.0 {
			t.Errorf("point %.2fx: delivered %.0f Mbps dropped below previous %.0f under saturation",
				p.Offered, p.WireMbps, res.Points[i-1].WireMbps)
		}
	}
	under := res.Points[0]                // 0.25x
	over := res.Points[len(res.Points)-1] // 2.0x
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
