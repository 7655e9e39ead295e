package fleet

import (
	"reflect"
	"testing"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/faults"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// TestDetectorTransitions enumerates the detector over snapshots alone —
// no cluster, no goroutine: every (shard state x observation) pair against
// a previous observation of heartbeat 7, 1000 offered bytes.
func TestDetectorTransitions(t *testing.T) {
	const hb, offered = 7, 1000
	cases := []struct {
		name        string
		sm          cluster.ShardMetrics
		dead        bool
		contributes uint64
	}{
		{"frozen heartbeat, offered growing: dead",
			cluster.ShardMetrics{Heartbeat: hb, OfferedBytes: offered + 512, Active: true}, true, 512},
		{"frozen heartbeat, offered flat: idle",
			cluster.ShardMetrics{Heartbeat: hb, OfferedBytes: offered, Active: true}, false, 0},
		{"frozen heartbeat, offered flat, scaled in: idle",
			cluster.ShardMetrics{Heartbeat: hb, OfferedBytes: offered}, false, 0},
		{"frozen heartbeat, offered growing, scaled in but still homing sessions: dead",
			cluster.ShardMetrics{Heartbeat: hb, OfferedBytes: offered + 64}, true, 64},
		{"heartbeat advancing, offered growing: serving (or stalled)",
			cluster.ShardMetrics{Heartbeat: hb + 3, OfferedBytes: offered + 4096, Active: true}, false, 4096},
		{"heartbeat advancing, offered flat: control traffic only",
			cluster.ShardMetrics{Heartbeat: hb + 1, OfferedBytes: offered, Active: true}, false, 0},
		{"frozen heartbeat, offered growing, already quarantined: handled",
			cluster.ShardMetrics{Heartbeat: hb, OfferedBytes: offered + 512, Crashed: true, Quarantined: true}, false, 512},
		{"frozen heartbeat, offered flat, quarantined corpse: handled",
			cluster.ShardMetrics{Heartbeat: hb, OfferedBytes: offered, Crashed: true, Quarantined: true}, false, 0},
		{"counters went backwards (slot rebuilt behind the detector): not dead, not load",
			cluster.ShardMetrics{Heartbeat: 2, OfferedBytes: 10, Active: true}, false, 0},
		{"same heartbeat value, offered shrank: a fresh incarnation, not a corpse",
			cluster.ShardMetrics{Heartbeat: hb, OfferedBytes: offered - 1, Active: true}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Shard 0 is a healthy bystander; shard 1 is under test.
			d := detector{hb: []uint64{3, hb}, offered: []uint64{500, offered}}
			tc.sm.Shard = 1
			snap := cluster.Metrics{Shards: []cluster.ShardMetrics{
				{Shard: 0, Heartbeat: 4, OfferedBytes: 800, Active: true}, tc.sm}}
			dead, delta := d.observe(snap)
			if got := len(dead) == 1 && dead[0] == 1; got != tc.dead || len(dead) > 1 {
				t.Errorf("dead = %v, want shard 1 dead = %v", dead, tc.dead)
			}
			if want := 300 + tc.contributes; delta != want {
				t.Errorf("offered delta = %d, want %d", delta, want)
			}
			if d.hb[1] != tc.sm.Heartbeat || d.offered[1] != tc.sm.OfferedBytes {
				t.Errorf("baseline not re-based: hb %d offered %d", d.hb[1], d.offered[1])
			}
			// The same snapshot again is a flat observation: nothing is
			// dead twice, nothing is measured twice.
			if dead, delta := d.observe(snap); len(dead) != 0 || delta != 0 {
				t.Errorf("repeat observation: dead %v, delta %d", dead, delta)
			}
		})
	}
}

// healMix is a four-class mix whose shares make a 2-of-4 outage shed two
// classes: at 3500 offered over 1000-per-shard capacity, three shards
// carry everything but background and two everything but background and
// data.
var healMix = []arrivals.ClassProfile{
	{Class: qos.Voice, Share: 0.10, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
	{Class: qos.Video, Share: 0.20, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Data, Share: 0.30, Bytes: 512, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Background, Share: 0.40, Bytes: 2048, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
}

const healWindow sim.Time = 200000

// healRig is a shaped cluster under a persistent open-loop load with a
// controller bound to it; step serves one window and closes it.
type healRig struct {
	t   *testing.T
	cl  *cluster.Cluster
	r   *cluster.OpenLoopRunner
	ctl *Controller
}

func newHealRig(t *testing.T, shards int, p HealPolicy) *healRig {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Shards: shards, Router: cluster.RouterLeastLoaded, Policy: "qos-priority",
		QueueRequests: true, Seed: 17, Shape: true,
		Shaper: qos.Config{Capacity: 8, QueueDepth: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.NewOpenLoopRunner(cl, cluster.OpenLoopRunnerConfig{
		Profiles: healMix, OfferedMbps: 875 * float64(shards), Seed: 17,
	})
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(); cl.Close() })
	p.Shares = arrivals.ClassShares(healMix)
	return &healRig{t: t, cl: cl, r: r, ctl: NewController(cl, p)}
}

func (h *healRig) step() []Event {
	h.t.Helper()
	if _, err := h.r.RunWindow(healWindow); err != nil {
		h.t.Fatal(err)
	}
	evs := h.ctl.Boundary()
	for _, ev := range evs {
		if ev.Kind == Restarted {
			h.r.Resnapshot()
		}
	}
	return evs
}

func (h *healRig) sessions() (perShard []int, total int) {
	for _, sm := range h.cl.Snapshot().Shards {
		perShard = append(perShard, sm.Sessions)
		total += sm.Sessions
	}
	return perShard, total
}

func planOrFatal(t *testing.T, cfg faults.PlanConfig) faults.Schedule {
	t.Helper()
	cfg.Seed, cfg.WindowCycles = 17, healWindow
	sched, err := faults.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestControllerHealLoop drives the whole loop over a real 4-shard
// cluster: two planned crashes in successive windows plus a stall, each
// corpse failed over at the next boundary with its sessions conserved,
// rebuilt exactly ceil(RestartCycles/WindowCycles) windows later, the
// brownout held while the measured load exceeds the healthy capacity and
// then lifted highest class first, one class per boundary — with voice in
// no mask, ever.
func TestControllerHealLoop(t *testing.T) {
	const crashWindow = 2
	src := reconfig.FastICAP.Scaled(3)
	p := HealPolicy{
		Schedule: planOrFatal(t, faults.PlanConfig{Shards: 4, Windows: 16, Crashes: 2, Stalls: 1,
			FaultWindow: crashWindow, StallCycles: healWindow / 2}),
		OfferedMbps: 3500, SatMbpsPerShard: 1000,
		RestartSource: src, WindowCycles: healWindow,
	}
	wait := int((cluster.RestartCycles(4, src) + healWindow - 1) / healWindow)
	if wait < 2 || p.RestartWindows(4) != wait {
		t.Fatalf("restart windows = %d, want ceil(%d/%d) = %d >= 2",
			p.RestartWindows(4), cluster.RestartCycles(4, src), healWindow, wait)
	}
	var victims []int
	stalled := -1
	for _, e := range p.Schedule.Events {
		if e.Kind == faults.ShardCrash {
			victims = append(victims, e.Shard)
		} else {
			stalled = e.Shard
		}
	}
	h := newHealRig(t, 4, p)
	_, population := h.sessions()

	type key struct {
		kind   EventKind
		window int
		shard  int
		class  qos.Class
	}
	// Boundary k closes window k-1: a crash in window w is seen at
	// boundary w+1 and its rebuild runs at boundary w+1+wait. The second
	// crash lands in the window right after the first fail-over, whose own
	// re-home and deny-mask batches advanced the survivors' heartbeats
	// past the baseline the detector had just taken — so that one is seen
	// a boundary late (the behaviour E16's two-crash rows pin).
	bg, data := [qos.NumClasses]bool{}, [qos.NumClasses]bool{}
	bg[qos.Background] = true
	data[qos.Background], data[qos.Data] = true, true
	want := []struct {
		key
		deny     [qos.NumClasses]bool
		capacity float64
	}{
		{key{FailedOver, crashWindow + 1, victims[0], 0}, bg, 3000},
		{key{FailedOver, crashWindow + 3, victims[1], 0}, data, 2000},
		// First rejoin: the plan for 3000 would re-admit data, but the
		// window measured ~3500 > 3000, so nothing lifts.
		{key{Restarted, crashWindow + 1 + wait, victims[0], 0}, data, 3000},
		{key{Restarted, crashWindow + 3 + wait, victims[1], 0}, data, 4000},
		{key{BrownoutLifted, crashWindow + 3 + wait, -1, qos.Data}, bg, 4000},
		{key{BrownoutLifted, crashWindow + 4 + wait, -1, qos.Background}, [qos.NumClasses]bool{}, 4000},
	}

	var trail []Event
	onCorpse := map[int]int{}
	for w := 0; w < crashWindow+wait+5; w++ {
		before, _ := h.sessions()
		for _, ev := range h.step() {
			if ev.Kind == FailedOver {
				onCorpse[ev.Shard] = before[ev.Shard]
			}
			trail = append(trail, ev)
		}
	}
	if !reflect.DeepEqual(trail, h.ctl.Events()) {
		t.Fatalf("Boundary returns and Events disagree:\n%+v\n%+v", trail, h.ctl.Events())
	}
	if len(trail) != len(want) {
		t.Fatalf("trail has %d events, want %d:\n%v", len(trail), len(want), trail)
	}
	for i, ev := range trail {
		w := want[i]
		if (key{ev.Kind, ev.Window, ev.Shard, ev.Class}) != w.key || ev.Deny != w.deny || ev.CapacityMbps != w.capacity {
			t.Errorf("event %d = %v (window %d, capacity %.0f), want %+v deny %v capacity %.0f", i, ev, ev.Window, ev.CapacityMbps, w.key, w.deny, w.capacity)
		}
		if ev.Deny[qos.Voice] {
			t.Errorf("event %d masks voice: %+v", i, ev)
		}
		if ev.Shard == stalled {
			t.Errorf("stalled shard %d treated as dead: %+v", stalled, ev)
		}
		switch ev.Kind {
		case FailedOver:
			if ev.Lost != 0 || ev.Moved != onCorpse[ev.Shard] || ev.Moved == 0 {
				t.Errorf("fail-over of shard %d moved %d lost %d, corpse held %d", ev.Shard, ev.Moved, ev.Lost, onCorpse[ev.Shard])
			}
		case Restarted:
			if ev.Moved == 0 || ev.Took != cluster.RestartCycles(4, src) {
				t.Errorf("restart of shard %d: %d sessions back in %d cycles", ev.Shard, ev.Moved, ev.Took)
			}
		case BrownoutLifted:
			if ev.MeasuredMbps > ev.CapacityMbps {
				t.Errorf("lifted %v at measured %.0f > capacity %.0f", ev.Class, ev.MeasuredMbps, ev.CapacityMbps)
			}
		}
		if ev.String() == "" {
			t.Errorf("event %d renders empty", i)
		}
	}
	if held := trail[2]; held.MeasuredMbps <= held.CapacityMbps {
		t.Errorf("first rejoin measured %.0f <= capacity %.0f: the hold was not exercised", held.MeasuredMbps, held.CapacityMbps)
	}
	perShard, total := h.sessions()
	if total != population {
		t.Errorf("session population %d after the loop, %d before", total, population)
	}
	for _, v := range victims {
		if perShard[v] == 0 {
			t.Errorf("rejoined shard %d homes no session: %v", v, perShard)
		}
	}

	// A second crash of a rejoined slot: the detector was re-based onto
	// the fresh incarnation's heartbeat, so it is seen like the first.
	v := victims[0]
	if err := h.cl.ArmShardCrash(v, h.cl.NextHeartbeat(v), healWindow/2); err != nil {
		t.Fatal(err)
	}
	evs := h.step()
	if len(evs) != 1 || evs[0].Kind != FailedOver || evs[0].Shard != v || evs[0].Lost != 0 {
		t.Fatalf("second crash of shard %d: events %v", v, evs)
	}
}

// TestControllerRefusedRestartStaysQueued: a rebuild the cluster refuses
// is retried at every later boundary instead of being dropped — here the
// refusal is an operator who restarted the slot by hand first.
func TestControllerRefusedRestartStaysQueued(t *testing.T) {
	h := newHealRig(t, 4, HealPolicy{
		Schedule:      planOrFatal(t, faults.PlanConfig{Shards: 4, Windows: 8, Crashes: 1, FaultWindow: 1}),
		RestartSource: reconfig.FastICAP.Scaled(64), // WindowCycles 0: one window out
	})
	victim := h.ctl.p.Schedule.Events[0].Shard
	h.step()
	if evs := h.step(); len(evs) != 1 || evs[0].Kind != FailedOver || evs[0].Deny != [qos.NumClasses]bool{} {
		t.Fatalf("crash window: events %v (no brownout configured)", evs)
	}
	if len(h.ctl.restarts) != 1 || h.ctl.restarts[0].ready != 3 {
		t.Fatalf("restart queue %+v, want shard %d ready at boundary 3", h.ctl.restarts, victim)
	}
	if _, err := h.cl.Restart(victim, reconfig.FastICAP); err != nil {
		t.Fatal(err)
	}
	h.r.Resnapshot()
	for i := 0; i < 2; i++ {
		if evs := h.step(); len(evs) != 0 {
			t.Fatalf("refused restart logged events: %v", evs)
		}
		if len(h.ctl.restarts) != 1 {
			t.Fatalf("refused restart dropped: queue %+v", h.ctl.restarts)
		}
	}
}

// TestControllerLastShardStanding: a one-shard cluster has nowhere to
// fail over to; the refusal is not an event and schedules nothing.
func TestControllerLastShardStanding(t *testing.T) {
	h := newHealRig(t, 1, HealPolicy{SatMbpsPerShard: 1000, OfferedMbps: 875,
		RestartSource: reconfig.FastICAP, WindowCycles: healWindow})
	h.step()
	if err := h.cl.ArmShardCrash(0, h.cl.NextHeartbeat(0), healWindow/2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if evs := h.step(); len(evs) != 0 {
			t.Fatalf("boundary %d after the crash: events %v", i, evs)
		}
	}
	if snap := h.cl.Snapshot(); !snap.Shards[0].Crashed || snap.Shards[0].Quarantined {
		t.Fatalf("shard 0: %+v, want crashed and not quarantined", snap.Shards[0])
	}
	if len(h.ctl.restarts) != 0 || len(h.ctl.Events()) != 0 {
		t.Fatalf("refused fail-over left state: %+v %v", h.ctl.restarts, h.ctl.Events())
	}
}
