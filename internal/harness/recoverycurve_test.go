package harness

import (
	"reflect"
	"testing"

	"mccp/internal/qos"
	"mccp/internal/reconfig"
)

// recoveryTestConfig keeps the E17 table small enough for CI: 4 shards,
// 64 sessions, short windows, qos-priority over all three sources. The
// higher TimeScale squeezes even the compact-flash reload into the short
// horizon; the ordering between sources is what the drill checks, and
// that is scale-invariant.
func recoveryTestConfig() RecoveryConfig {
	return RecoveryConfig{FaultConfig: faultDrill(64), TimeScale: 16384}
}

// recoveryCurve runs the qos-priority drill once per bitstream source,
// slowest first.
func recoveryCurve() []RecoveryPoint {
	cfg := recoveryTestConfig()
	cfg.fill()
	sat := cfg.Wire.saturation()
	var pts []RecoveryPoint
	for _, src := range reconfig.Sources() {
		pts = append(pts, RecoveryPointRun("qos-priority", src, sat, cfg))
	}
	return pts
}

func TestRecoveryCurvesDeterministic(t *testing.T) {
	a, b := recoveryCurve(), recoveryCurve()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("E17 points not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	for i, p := range a {
		if p.ArrivalDigest == 0 {
			t.Fatalf("point %d: zero arrival digest", i)
		}
	}
}

// TestRecoveryCurvesShape pins the drill's substance per source: the
// shard restarts and rejoins, nothing is lost, voice rides through the
// whole arc, the brownout lifts, capacity comes back — and the paper's
// Table IV hierarchy survives the full stack: the icap reload beats ram
// beats compact-flash, in restart cost and in time back to capacity.
func TestRecoveryCurvesShape(t *testing.T) {
	res := recoveryCurve()
	if len(res) != 3 {
		t.Fatalf("expected 1 policy x 3 sources = 3 points, got %d", len(res))
	}
	byName := map[string]RecoveryPoint{}
	for _, p := range res {
		byName[p.Source] = p
		if p.RejoinWindow < 0 {
			t.Errorf("%s: shard never rejoined", p.Source)
			continue
		}
		if p.Lost != 0 {
			t.Errorf("%s: %d sessions lost", p.Source, p.Lost)
		}
		if p.Moved == 0 {
			t.Errorf("%s: no sessions re-homed at the crash", p.Source)
		}
		if v := qos.CellOf(p.Classes, qos.Voice); v.LossFrac > 0.01 {
			t.Errorf("%s: voice loss %.2f%% above 1%% across crash and recovery",
				p.Source, 100*v.LossFrac)
		}
		if !p.BrownoutImposed {
			t.Errorf("%s: the fail-over shed nothing (drill not exercising brownout)", p.Source)
		}
		if !p.BrownoutLifted {
			t.Errorf("%s: brownout never fully lifted", p.Source)
		}
		if !p.Recovered {
			t.Errorf("%s: voice never recovered", p.Source)
		}
		if !p.CapacityRestored {
			t.Errorf("%s: delivered capacity never climbed back", p.Source)
		}
		if p.RestartCycles == 0 {
			t.Errorf("%s: free bitstream reload", p.Source)
		}
	}
	cf, ram, icap := byName[reconfig.CompactFlash.Name], byName[reconfig.StagingRAM.Name], byName[reconfig.FastICAP.Name]
	if !(icap.RestartCycles < ram.RestartCycles && ram.RestartCycles < cf.RestartCycles) {
		t.Errorf("restart cost ordering broken: icap %d, ram %d, compact-flash %d",
			icap.RestartCycles, ram.RestartCycles, cf.RestartCycles)
	}
	if !(icap.CapacityCycles <= ram.CapacityCycles && ram.CapacityCycles <= cf.CapacityCycles) {
		t.Errorf("time-to-capacity ordering broken: icap %d, ram %d, compact-flash %d",
			icap.CapacityCycles, ram.CapacityCycles, cf.CapacityCycles)
	}
}

// TestRecoveryBaselineMatchesFaultZeroRow is the E17 lineage guard: the
// zero-fault baseline row is computed by E16's own faultPointRun with
// the same wire config, so the two experiments share one baseline bit
// for bit — and the restart plumbing costs nothing until a crash fires.
func TestRecoveryBaselineMatchesFaultZeroRow(t *testing.T) {
	cfg := recoveryTestConfig()
	cfg.fill()
	sat := cfg.Wire.saturation()
	got := recoveryBaseline("qos-priority", sat, recoveryTestConfig())
	base := FaultPointRun("qos-priority", FaultRow{}, sat, cfg.FaultConfig)
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("E17 baseline diverges from the E16 zero-fault row:\n%+v\nvs\n%+v", got, base)
	}
}
