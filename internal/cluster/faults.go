package cluster

import (
	"fmt"
	"strings"

	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/sim"
)

// This file is the cluster's half of the deterministic fault-injection
// plane (internal/faults builds schedules; this is the mechanism). A
// fault is *armed* on a shard by the front end — a lock-free handoff the
// shard goroutine consumes at its next batch — and *fires* as a scheduled
// event on the shard's own discrete-event engine, so the failure point is
// a virtual time, reproducible bit-for-bit across runs. A crashed shard
// keeps its goroutine (batches still drain, so barriers never hang) but
// its service dies: the shaper fails everything with ErrShardDown, and
// its heartbeat counter — published in every Snapshot — freezes, which is
// how a failure detector tells a dead shard from an idle one. Recovery is
// the quarantine → voice-first re-home → (optional) brownout sequence.

// ErrShardDown is the verdict every packet lost to a crashed shard gets:
// queued work at the moment the crash fires and every later submission.
// It classifies as verdict.Failed, so nothing new crosses the wire.
var ErrShardDown = fmt.Errorf("cluster: shard down (injected crash)")

// NextHeartbeat returns the heartbeat value the shard's next batch will
// start with — the `when` to pass to ArmShardCrash/ArmShardStall to make
// the fault fire in the very next batch. Heartbeats advance once per
// served batch and freeze on crash; the value is read from the shard's
// published snapshot, so it is safe from any goroutine.
func (c *Cluster) NextHeartbeat(id int) uint64 {
	if id < 0 || id >= c.cfg.Shards {
		return 0
	}
	return c.shards[id].snap.Load().heartbeat
}

// ArmShardCrash arms a permanent crash on a shard: in the first batch
// whose starting heartbeat is >= when, an event scheduled offset cycles
// into the batch kills the shard's service — its shaper fails all queued
// and future packets with ErrShardDown and its heartbeat freezes. The
// shard goroutine itself keeps draining batches (so flush barriers never
// hang on a corpse); detection and re-homing are the caller's move (see
// FailOver). Arming is a lock-free atomic store, safe from any
// goroutine; the cluster must run per-shard shapers (Config.Shape).
func (c *Cluster) ArmShardCrash(id int, when uint64, offset sim.Time) error {
	return c.armFault(id, when, offset, 0)
}

// ArmShardStall arms a transient freeze: at the armed point the shard's
// shaper stops dispatching for stall cycles — queued packets age and
// expire in place under the normal AgeLimit/deadline machinery — then
// resumes and drains the survivors. The heartbeat keeps advancing, so a
// stalled shard is *not* reported dead; it recovers on its own.
func (c *Cluster) ArmShardStall(id int, when uint64, offset, stall sim.Time) error {
	if stall <= 0 {
		return fmt.Errorf("cluster: shard stall needs a positive duration")
	}
	return c.armFault(id, when, offset, stall)
}

func (c *Cluster) armFault(id int, when uint64, offset, stall sim.Time) error {
	if id < 0 || id >= c.cfg.Shards {
		return fmt.Errorf("cluster: no shard %d", id)
	}
	if !c.cfg.Shape {
		return fmt.Errorf("cluster: fault injection needs per-shard shapers (Config.Shape)")
	}
	c.shards[id].fault.Store(&shardFault{when: when, offset: offset, stall: stall})
	return nil
}

// Quarantine withdraws a dead shard from routing, like SetShardActive,
// and additionally marks it quarantined: migrations treat its channel
// state as lost and never enqueue close operations there, and the next
// migration that picks a session still homed on it moves it or reports
// it Lost. The last active shard cannot be quarantined (the cluster would
// serve nothing); the error leaves the shard serving whatever still works.
func (c *Cluster) Quarantine(id int) error {
	if err := c.SetShardActive(id, false); err != nil {
		return err
	}
	c.quarantined[id] = true
	sh := c.shards[id]
	sh.quarantinedA.Store(true)
	// Freeze the shard's flight recorder: the quarantine decision is the
	// front end's, so the timestamp is the shard's last published virtual
	// time (the recorder itself is mutex-protected against the shard
	// goroutine's concurrent appends).
	at := sh.base + sh.snap.Load().cycles
	sh.rec.Event(at, obs.EvQuarantine, "withdrawn from routing by front end")
	sh.rec.Freeze("quarantine", at)
	return nil
}

// QuarantinedShard reports whether a shard has been quarantined.
func (c *Cluster) QuarantinedShard(id int) bool {
	return id >= 0 && id < c.cfg.Shards && c.quarantined[id]
}

// ApplyDeny installs a brownout admission mask on every live shard's
// shaper: a denied class is shed at admission with qos.ErrShed — the
// existing load-shedding verdict, so degradation is visible through the
// counters and wire statuses that already exist. The zero mask restores
// full admission. Requires per-shard shapers (Config.Shape).
func (c *Cluster) ApplyDeny(deny [qos.NumClasses]bool) error {
	if !c.cfg.Shape {
		return fmt.Errorf("cluster: brownout needs per-shard shapers (Config.Shape)")
	}
	c.Flush()
	// Render the mask once (deterministic note shared by every shard's
	// recorder entry); the zero mask is the brownout lift.
	var denied []string
	for class := qos.Class(0); int(class) < qos.NumClasses; class++ {
		if deny[class] {
			denied = append(denied, class.String())
		}
	}
	note := "admission restored"
	if len(denied) > 0 {
		note = "deny=" + strings.Join(denied, ",")
	}
	var slots []*pendingOp
	for i, sh := range c.shards {
		if sh.crashed.Load() || c.quarantined[i] {
			continue
		}
		slot := c.control(i, func(sh *shard, op *pendingOp, done func()) {
			sh.shaper.SetDeny(deny)
			if len(denied) > 0 {
				sh.rec.Event(sh.eng.Now(), obs.EvBrownoutOn, note)
				sh.rec.Freeze("brownout", sh.eng.Now())
			} else {
				sh.rec.Event(sh.eng.Now(), obs.EvBrownoutOff, note)
			}
			done()
		})
		slots = append(slots, slot)
	}
	c.Flush()
	for _, slot := range slots {
		c.putSlot(slot)
	}
	return nil
}
