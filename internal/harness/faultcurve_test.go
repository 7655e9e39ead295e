package harness

import (
	"reflect"
	"testing"

	"mccp/internal/qos"
	"mccp/internal/sim"
)

// faultTestConfig keeps the E16 drill small enough for CI: 4 shards,
// 64 sessions, short windows.
func faultTestConfig() FaultConfig {
	return faultDrill(64)
}

// faultCurve runs FaultPointRun for every policy and row, policy-major,
// calibrating the saturation first as the registered points do.
func faultCurve(cfg FaultConfig, policies []string, rows []FaultRow) []FaultPoint {
	cfg.fill()
	sat := cfg.Wire.saturation()
	var pts []FaultPoint
	for _, pol := range policies {
		for _, row := range rows {
			pts = append(pts, FaultPointRun(pol, row, sat, cfg))
		}
	}
	return pts
}

func TestFaultCurvesDeterministic(t *testing.T) {
	a := faultCurve(faultTestConfig(), contrastPolicies, faultRows)
	b := faultCurve(faultTestConfig(), contrastPolicies, faultRows)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("E16 points not reproducible:\n%+v\nvs\n%+v", a, b)
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

// TestFaultCurvesCompat replays one faulted point on the reference
// simulation kernel: digests, verdicts, fail-over log and recovery
// times must all match the fast path bit for bit.
func TestFaultCurvesCompat(t *testing.T) {
	run := func() []FaultPoint {
		return faultCurve(faultTestConfig(), []string{"qos-priority"}, []FaultRow{{Crashes: 1, Churn: 8}})
	}
	fast := run()
	sim.CompatDefault = true
	defer func() { sim.CompatDefault = false }()
	ref := run()
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("fast path diverges from the Compat reference kernel:\n%+v\nvs\n%+v", fast, ref)
	}
}

// TestFaultZeroRowMatchesWireBaseline is the E16 lineage guard: the
// zero-fault row — fault plane wired in, schedule empty, detector live —
// must be bit-identical to the plain E14 pipeline at the same offered
// point. The fault machinery may cost nothing until a fault fires.
func TestFaultZeroRowMatchesWireBaseline(t *testing.T) {
	cfg := faultTestConfig()
	cfg.fill()
	sat := cfg.Wire.saturation()

	fault := FaultPointRun("qos-priority", FaultRow{0, 0}, sat, cfg)

	wire := cfg.Wire
	wire.Policy = "qos-priority"
	base := WirePointRun(cfg.Offered, sat, wire)

	if !reflect.DeepEqual(fault.WirePoint, base) {
		t.Fatalf("zero-fault row diverges from the E14 baseline:\nfault: %+v\nbase:  %+v",
			fault.WirePoint, base)
	}
	if len(fault.Events) != 0 {
		t.Fatalf("zero-fault row recorded controller events: %+v", fault.Events)
	}
	if fault.Churned != 0 {
		t.Fatalf("zero-fault row churned %d sessions", fault.Churned)
	}
}

func TestFaultCurvesShape(t *testing.T) {
	res := faultCurve(faultTestConfig(), contrastPolicies, faultRows)
	if len(res) != 8 {
		t.Fatalf("expected 2 policies x 4 rows = 8 points, got %d", len(res))
	}
	for _, p := range res {
		if p.Row.Crashes == 0 {
			if len(p.Events) != 0 {
				t.Errorf("%s zero-fault row has controller events: %+v", p.Policy, p.Events)
			}
			continue
		}
		if p.FailOvers != p.Row.Crashes {
			t.Errorf("%s crashes=%d: detector logged %d fail-overs",
				p.Policy, p.Row.Crashes, p.FailOvers)
		}
		if p.Lost != 0 {
			t.Errorf("%s crashes=%d: %d sessions lost in re-home", p.Policy, p.Row.Crashes, p.Lost)
		}
		if p.Moved == 0 {
			t.Errorf("%s crashes=%d: no sessions re-homed", p.Policy, p.Row.Crashes)
		}
		if !p.Recovered {
			t.Errorf("%s crashes=%d: voice never recovered", p.Policy, p.Row.Crashes)
		}
		if p.Policy == "qos-priority" {
			v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
			if p.Row.Crashes == 1 && v.LossFrac > 0.01 {
				t.Errorf("qos-priority crashes=1 churn=%d: voice loss %.2f%% above 1%%",
					p.Row.Churn, 100*v.LossFrac)
			}
			// With half the cluster dead some voice bound for the corpses
			// is unavoidable; it must still be a small fraction of the
			// background loss the brownout deliberately takes.
			if v.LossFrac > bg.LossFrac/4 {
				t.Errorf("qos-priority crashes=%d: voice loss %.2f%% not well under background %.2f%%",
					p.Row.Crashes, 100*v.LossFrac, 100*bg.LossFrac)
			}
		}
		if p.Row.Churn > 0 && p.Churned == 0 {
			t.Errorf("%s churn=%d: no sessions churned", p.Policy, p.Row.Churn)
		}
	}
}
