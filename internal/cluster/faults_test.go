package cluster

import (
	"reflect"
	"testing"

	"mccp/internal/arrivals"
	"mccp/internal/qos"
	"mccp/internal/sim"
)

// faultCluster builds a shaped 4-shard cluster plus a persistent
// open-loop runner at a moderate offered load, the substrate every
// fault-plane test drives.
func faultCluster(t *testing.T, seed uint64) (*Cluster, *OpenLoopRunner) {
	t.Helper()
	cl, err := New(Config{
		Shards:        4,
		CoresPerShard: 4,
		Router:        RouterQoSAware,
		Policy:        "qos-priority",
		QueueRequests: true,
		Seed:          seed,
		Shape:         true,
		Shaper:        qos.Config{Capacity: 8, QueueDepth: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewOpenLoopRunner(cl, OpenLoopRunnerConfig{
		Profiles:    openLoopProfiles(),
		OfferedMbps: 3000,
		Seed:        seed,
	})
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(); cl.Close() })
	return cl, r
}

// TestCrashFailOverUnderLoad is the cluster-layer crash drill: a crash
// armed mid-window kills one shard's service, the heartbeat freeze
// betrays it at the next flush boundary, and FailOver re-homes every
// one of its sessions onto the survivors with nothing lost.
func TestCrashFailOverUnderLoad(t *testing.T) {
	const dead, horizon = 1, 200000
	cl, r := faultCluster(t, 41)
	if _, err := r.RunWindow(horizon); err != nil {
		t.Fatal(err)
	}

	hb := cl.NextHeartbeat(dead)
	if err := cl.ArmShardCrash(dead, hb, horizon/2); err != nil {
		t.Fatal(err)
	}
	w, err := r.RunWindow(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if w.Errors == 0 {
		t.Fatalf("crash window recorded no ErrShardDown verdicts")
	}

	snap := cl.Snapshot()
	if !snap.Shards[dead].Crashed {
		t.Fatalf("shard %d not marked crashed: %+v", dead, snap.Shards[dead])
	}
	if got := snap.Shards[dead].Heartbeat; got != hb {
		t.Fatalf("crashed shard heartbeat advanced: armed at %d, now %d", hb, got)
	}

	// The sessions homed on the corpse before the fail-over.
	victims := 0
	for _, src := range r.sources {
		if src.ses.Shard() == dead {
			victims++
		}
	}
	if victims == 0 {
		t.Fatalf("no runner sessions homed on shard %d", dead)
	}

	rep, err := cl.FailOver(dead)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved != victims || rep.Lost != 0 {
		t.Fatalf("fail-over moved %d lost %d, want moved %d lost 0", rep.Moved, rep.Lost, victims)
	}
	if rep.Took == 0 {
		t.Fatalf("fail-over reported zero re-home latency")
	}
	if !cl.QuarantinedShard(dead) {
		t.Fatalf("shard %d not quarantined after fail-over", dead)
	}
	for _, src := range r.sources {
		if src.ses.Shard() == dead {
			t.Fatalf("session %d still homed on the corpse", src.ses.ID())
		}
		if src.ses.Closed() {
			t.Fatalf("session %d closed by a lossless fail-over", src.ses.ID())
		}
	}

	// Post-fail-over windows serve from the survivors with no hard errors
	// (shedding under the concentrated load is fine; failures are not).
	after, err := r.RunWindow(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if after.Errors != 0 {
		t.Fatalf("post-fail-over window still failing: %d errors", after.Errors)
	}
	if after.ArrivalDigests[dead] != arrivals.DigestInit {
		t.Fatalf("quarantined shard still receives arrivals")
	}
}

// TestStallRecoversWithoutQuarantine: a stalled shard freezes its
// dispatch, not its heartbeat — the detector signal stays healthy, and
// the shard drains its survivors and serves the next window on its own.
func TestStallRecoversWithoutQuarantine(t *testing.T) {
	const target, horizon = 2, 200000
	cl, r := faultCluster(t, 43)
	if _, err := r.RunWindow(horizon); err != nil {
		t.Fatal(err)
	}
	hb := cl.NextHeartbeat(target)
	if err := cl.ArmShardStall(target, hb, horizon/4, horizon/2); err != nil {
		t.Fatal(err)
	}
	w, err := r.RunWindow(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if w.Errors != 0 {
		t.Fatalf("stall produced hard errors: %d (want aged/expired only)", w.Errors)
	}
	snap := cl.Snapshot()
	if snap.Shards[target].Crashed || snap.Shards[target].Quarantined {
		t.Fatalf("stalled shard misreported dead: %+v", snap.Shards[target])
	}
	if got := snap.Shards[target].Heartbeat; got <= hb {
		t.Fatalf("stalled shard heartbeat frozen at %d (armed at %d)", got, hb)
	}
	after, err := r.RunWindow(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if after.Errors != 0 {
		t.Fatalf("post-stall window failing: %d errors", after.Errors)
	}
	if after.ArrivalDigests[target] == arrivals.DigestInit {
		t.Fatalf("recovered shard received no arrivals")
	}
	if err := cl.ArmShardStall(target, cl.NextHeartbeat(target), 0, 0); err == nil {
		t.Fatalf("zero-duration stall accepted")
	}
}

// faultScenario runs the canonical crash drill end to end and returns
// everything observable: per-window results, the fail-over report and
// the crashed shard's final snapshot.
type faultScenarioResult struct {
	Windows []OpenLoopWindow
	Report  MoveReport
	Shard   ShardMetrics
}

func runFaultScenario(t *testing.T, seed uint64) faultScenarioResult {
	t.Helper()
	const dead, horizon = 1, 200000
	cl, r := faultCluster(t, seed)
	var res faultScenarioResult
	run := func() {
		w, err := r.RunWindow(horizon)
		if err != nil {
			t.Fatal(err)
		}
		res.Windows = append(res.Windows, w)
	}
	run()
	if err := cl.ArmShardCrash(dead, cl.NextHeartbeat(dead), horizon/2); err != nil {
		t.Fatal(err)
	}
	run()
	rep, err := cl.FailOver(dead)
	if err != nil {
		t.Fatal(err)
	}
	res.Report = rep
	run()
	run()
	res.Shard = cl.Snapshot().Shards[dead]
	return res
}

// TestFaultScenarioDeterministic: the crash drill — arrival streams,
// the crash fire point, the re-home order and latency — is bit-identical
// across runs and against the reference simulation kernel.
func TestFaultScenarioDeterministic(t *testing.T) {
	a := runFaultScenario(t, 47)
	b := runFaultScenario(t, 47)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault scenario not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	sim.CompatDefault = true
	defer func() { sim.CompatDefault = false }()
	ref := runFaultScenario(t, 47)
	if !reflect.DeepEqual(a, ref) {
		t.Fatalf("fault scenario diverges from the Compat kernel:\n%+v\nvs\n%+v", a, ref)
	}
}

// TestFaultPlaneIdleIsFree: a run that polls the fault-detection
// surfaces every window — Snapshot, NextHeartbeat, QuarantinedShard —
// without ever arming a fault is bit-identical to a run that never
// looks. Detection is read-only; the fault plane costs nothing until a
// fault fires.
func TestFaultPlaneIdleIsFree(t *testing.T) {
	const horizon = 150000
	run := func(poll bool) []OpenLoopWindow {
		cl, r := faultCluster(t, 53)
		var wins []OpenLoopWindow
		for i := 0; i < 3; i++ {
			if poll {
				snap := cl.Snapshot()
				for s := range snap.Shards {
					_ = cl.NextHeartbeat(s)
					_ = cl.QuarantinedShard(s)
				}
			}
			w, err := r.RunWindow(horizon)
			if err != nil {
				t.Fatal(err)
			}
			wins = append(wins, w)
		}
		return wins
	}
	if a, b := run(true), run(false); !reflect.DeepEqual(a, b) {
		t.Fatalf("polling the detector perturbed the run:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSnapshotCountsShardSideBytes: open-loop arrivals are generated on
// the shard, past the front end's submit/deliver counters, and Snapshot
// must still see them — the heal controller's detector reads a dead
// shard's "offered bytes kept growing" from exactly these figures.
func TestSnapshotCountsShardSideBytes(t *testing.T) {
	cl, r := faultCluster(t, 43)
	w, err := r.RunWindow(200000)
	if err != nil {
		t.Fatal(err)
	}
	var completed uint64
	for _, c := range w.Classes {
		completed += c.Bytes
	}
	if completed == 0 {
		t.Fatal("window completed no bytes")
	}
	snap := cl.Snapshot()
	var delivered uint64
	for _, sm := range snap.Shards {
		if sm.OfferedBytes == 0 || sm.OfferedBytes < sm.Bytes {
			t.Errorf("shard %d: offered %d, delivered %d bytes", sm.Shard, sm.OfferedBytes, sm.Bytes)
		}
		delivered += sm.Bytes
	}
	if delivered != completed || snap.Bytes != completed {
		t.Fatalf("snapshot delivered %d bytes (total %d), window completed %d", delivered, snap.Bytes, completed)
	}
}
