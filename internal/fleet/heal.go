package fleet

import (
	"fmt"
	"strings"
	"sync"

	"mccp/internal/cluster"
	"mccp/internal/faults"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// This file is the heal controller: the one copy of the decision "when is
// a shard dead, and what happens next". The wire server calls Boundary at
// every FLUSH-counted window boundary, the mccpcluster drills after every
// open-loop window, and E16/E17 measure it through the server — so the
// drills demonstrate exactly the controller the experiments gate.

// HealPolicy parameterizes a Controller.
type HealPolicy struct {
	// Schedule is the seeded fault plan the controller arms: shard events
	// planned for window k arm at the boundary that ends window k-1, so
	// they fire mid-window on the victim shard's own virtual timeline.
	// (SessionChurn events are the load generator's; ignored here.)
	Schedule faults.Schedule
	// Brownout inputs: the offered load, the serving capacity of one
	// healthy shard (same unit), and each class's share of the offered
	// bits. After a fail-over the controller sheds whole classes
	// (background first, never voice) until the surviving capacity covers
	// the admitted load. SatMbpsPerShard 0 disables brownout.
	OfferedMbps     float64
	SatMbpsPerShard float64
	Shares          [qos.NumClasses]float64
	// RestartSource, when set (BytesPerSec > 0), closes the loop: a shard
	// the detector fails over is scheduled for a rebuild — the base
	// bitstream streamed back in from this source — and rejoined once
	// enough windows have passed to cover cluster.RestartCycles at that
	// speed. The zero value leaves a corpse quarantined for good.
	RestartSource reconfig.Source
	// WindowCycles is one window's virtual length: it converts the restart
	// duration into a rejoin window and the per-window offered-byte deltas
	// into the measured Mbps the brownout lift is gated on. 0 schedules
	// restarts one window out and measures nothing.
	WindowCycles sim.Time
}

// RestartWindows is how many whole windows a shard rebuild from
// RestartSource occupies on a cores-core shard (at least one).
func (p HealPolicy) RestartWindows(cores int) int {
	if p.WindowCycles == 0 {
		return 1
	}
	need := cluster.RestartCycles(cores, p.RestartSource)
	return max(1, int((need+p.WindowCycles-1)/p.WindowCycles))
}

// EventKind classifies a controller transition.
type EventKind int

const (
	// FailedOver: a frozen heartbeat betrayed a crash; the shard was
	// quarantined, its sessions re-homed voice-first and the brownout mask
	// re-planned for the capacity that remains.
	FailedOver EventKind = iota
	// Restarted: a scheduled rebuild ran; the shard rejoined routing and
	// load was rebalanced back onto it voice-first.
	Restarted
	// BrownoutLifted: one denied class was re-admitted.
	BrownoutLifted
)

// Event is one entry of the controller's trail: what it did at a window
// boundary and the inputs it acted on.
type Event struct {
	Kind EventKind
	// Window is the boundary count at which the action ran (boundary k
	// ends window k-1); Shard the shard acted on (-1 for BrownoutLifted).
	Window int
	Shard  int
	// FailedOver: Moved/Lost split the corpse's sessions and Took is the
	// re-home's virtual-time cost on the survivors. Restarted: Moved/Lost
	// are the rebalance onto the rejoined shard and Took is the bitstream
	// reload on its fresh timeline.
	Moved int
	Lost  int
	Took  sim.Time
	// Class is the class re-admitted (BrownoutLifted only); Deny the
	// brownout mask in force after this event.
	Class qos.Class
	Deny  [qos.NumClasses]bool
	// MeasuredMbps is the offered load measured over the window that just
	// ended, CapacityMbps the healthy serving capacity after the action —
	// the two figures the lift rule compares.
	MeasuredMbps float64
	CapacityMbps float64
}

func (e Event) String() string {
	switch e.Kind {
	case FailedOver:
		s := fmt.Sprintf("shard %d down: re-homed %d (voice first), lost %d, %d cycles", e.Shard, e.Moved, e.Lost, e.Took)
		var shed []string
		for _, class := range qos.Classes() {
			if e.Deny[class] {
				shed = append(shed, class.String())
			}
		}
		if len(shed) > 0 {
			s += "; brownout: shedding " + strings.Join(shed, ", ")
		}
		return s
	case Restarted:
		s := fmt.Sprintf("shard %d restarted in %d cycles: rejoined, %d sessions back", e.Shard, e.Took, e.Moved)
		if e.Lost > 0 {
			s += fmt.Sprintf(", lost %d", e.Lost)
		}
		return s
	default:
		return fmt.Sprintf("brownout: %v re-admitted (measured %.0f <= capacity %.0f Mbps)", e.Class, e.MeasuredMbps, e.CapacityMbps)
	}
}

// detector is the heartbeat failure detector's memory: each shard's
// heartbeat and offered-byte counters as of the previous observation.
type detector struct {
	hb, offered []uint64
}

// observe compares a snapshot with the previous one. A serving shard whose
// heartbeat did not advance while its offered bytes kept growing is dead:
// an idle or scaled-in shard's offered bytes are flat, a stalled shard's
// heartbeat still advances, and a shard already quarantined is somebody's
// finished business. It returns the newly dead shards in index order and
// the offered bytes that arrived cluster-wide since the last observation
// (a counter that went backwards — a rebuilt slot — contributes nothing).
func (d *detector) observe(snap cluster.Metrics) (dead []int, offered uint64) {
	for i, sm := range snap.Shards {
		if sm.OfferedBytes >= d.offered[i] {
			offered += sm.OfferedBytes - d.offered[i]
		}
		if sm.Heartbeat == d.hb[i] && sm.OfferedBytes > d.offered[i] && !sm.Quarantined {
			dead = append(dead, i)
		}
		d.rebase(sm)
	}
	return dead, offered
}

// rebase records one shard's counters as the baseline for the next
// observation.
func (d *detector) rebase(sm cluster.ShardMetrics) {
	d.hb[sm.Shard], d.offered[sm.Shard] = sm.Heartbeat, sm.OfferedBytes
}

// rebuild is one scheduled shard rebuild: it runs at the first
// boundary >= ready, the windows in between modeling the bitstream reload
// at the policy's source speed.
type rebuild struct {
	shard int
	ready int
}

// Controller runs the detect → fail-over → brownout → restart → rejoin →
// lift loop over one cluster. Boundary is front-end-only (the cluster's
// single-caller discipline); Events is safe from any goroutine.
//
// A restart the cluster refuses stays queued and is retried at every
// later boundary until it succeeds: the detector skips quarantined
// shards, so nothing else would ever bring the slot back. The controller
// assumes it alone restarts the shards it quarantined.
//
// There is no un-freeze path: a shard's heartbeat advances on every batch
// it serves unless it crashed, so a shard this detector quarantines is
// always a corpse. An operator who quarantined a live shard by hand lifts
// that with cluster.Unquarantine.
type Controller struct {
	cl       *cluster.Cluster
	p        HealPolicy
	window   int
	det      detector
	restarts []rebuild
	deny     [qos.NumClasses]bool

	mu    sync.Mutex
	trail []Event
}

// NewController binds a heal controller to a cluster. The cluster must
// run per-shard shapers (Config.Shape) for faults and brownout to act.
func NewController(cl *cluster.Cluster, p HealPolicy) *Controller {
	return &Controller{cl: cl, p: p, det: detector{
		hb:      make([]uint64, cl.Shards()),
		offered: make([]uint64, cl.Shards()),
	}}
}

// Events returns the trail so far.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.trail...)
}

// Boundary closes one served window — call it with the cluster flushed —
// and returns what the controller did, in order: measure the window from
// the offered-byte deltas, detect frozen heartbeats, fail each corpse over
// voice-first, re-plan the brownout and schedule the rebuild, run the
// restarts that are due (rejoin, rebalance back, re-base the detector),
// lift at most one denied class, and arm the faults planned for the
// window now starting. With nothing pending it reads one snapshot and
// touches no shard, so fault-free runs keep their virtual timelines.
func (c *Controller) Boundary() []Event {
	c.window++
	first := len(c.trail)
	dead, offered := c.det.observe(c.cl.Snapshot())
	measured := 0.0
	if c.p.WindowCycles > 0 {
		measured = float64(offered*8) / float64(c.p.WindowCycles) * sim.DefaultFreqHz / 1e6
	}
	for _, shard := range dead {
		c.failOver(shard, measured)
	}
	c.runRestarts(measured)
	c.lift(measured)
	for _, e := range c.p.Schedule.ForWindow(c.window) {
		// Arming only fails on a shard index the planner already validated
		// or on an unshaped cluster, where no fault could act anyway.
		switch e.Kind {
		case faults.ShardCrash:
			_ = c.cl.ArmShardCrash(e.Shard, c.cl.NextHeartbeat(e.Shard), e.Offset)
		case faults.ShardStall:
			_ = c.cl.ArmShardStall(e.Shard, c.cl.NextHeartbeat(e.Shard), e.Offset, e.Dur)
		}
	}
	return c.trail[first:len(c.trail):len(c.trail)]
}

// capacity is the serving capacity of the shards that are neither
// quarantined nor crashed.
func (c *Controller) capacity() float64 {
	healthy := 0
	for _, sm := range c.cl.Snapshot().Shards {
		if !sm.Quarantined && !sm.Crashed {
			healthy++
		}
	}
	return float64(healthy) * c.p.SatMbpsPerShard
}

func (c *Controller) log(ev Event, measured float64) {
	ev.Window, ev.Deny, ev.MeasuredMbps, ev.CapacityMbps = c.window, c.deny, measured, c.capacity()
	c.mu.Lock()
	c.trail = append(c.trail, ev)
	c.mu.Unlock()
}

func (c *Controller) failOver(shard int, measured float64) {
	rep, err := c.cl.FailOver(shard)
	if err != nil {
		return // last shard standing: nothing left to re-home onto
	}
	if c.p.SatMbpsPerShard > 0 {
		c.deny = faults.BrownoutDeny(c.p.OfferedMbps, c.capacity(), c.p.Shares)
		_ = c.cl.ApplyDeny(c.deny) // fails only on an unshaped cluster
	}
	if c.p.RestartSource.BytesPerSec > 0 {
		c.restarts = append(c.restarts, rebuild{shard: shard,
			ready: c.window + c.p.RestartWindows(c.cl.CoresPerShard())})
	}
	c.log(Event{Kind: FailedOver, Shard: shard, Moved: rep.Moved, Lost: rep.Lost, Took: rep.Took}, measured)
}

func (c *Controller) runRestarts(measured float64) {
	kept := c.restarts[:0]
	for _, job := range c.restarts {
		if c.window < job.ready {
			kept = append(kept, job)
			continue
		}
		rep, err := c.cl.Restart(job.shard, c.p.RestartSource)
		if err != nil {
			kept = append(kept, job) // retried at the next boundary
			continue
		}
		// Cannot fail: Restart just re-admitted the shard to routing.
		moves, _ := c.cl.RebalanceInto(job.shard)
		// The rebuilt shard's heartbeat restarts from zero: re-base the
		// detector so the fresh incarnation is watched (and a second crash
		// of the same slot stays detectable).
		c.det.rebase(c.cl.Snapshot().Shards[job.shard])
		c.log(Event{Kind: Restarted, Shard: job.shard, Moved: moves.Moved, Lost: moves.Lost, Took: rep.Took}, measured)
	}
	c.restarts = kept
}

// lift re-admits the highest-priority class the brownout plan for the
// current healthy capacity no longer denies — one class per boundary, and
// only when the window's measured load fits under that capacity.
func (c *Controller) lift(measured float64) {
	if c.p.SatMbpsPerShard <= 0 || c.deny == [qos.NumClasses]bool{} {
		return
	}
	capacity := c.capacity()
	want := faults.BrownoutDeny(c.p.OfferedMbps, capacity, c.p.Shares)
	for class := qos.NumClasses - 1; class >= 0; class-- {
		if c.deny[class] && !want[class] {
			if measured <= capacity {
				c.deny[class] = false
				_ = c.cl.ApplyDeny(c.deny) // fails only on an unshaped cluster
				c.log(Event{Kind: BrownoutLifted, Shard: -1, Class: qos.Class(class)}, measured)
			}
			return
		}
	}
}
