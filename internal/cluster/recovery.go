package cluster

import (
	"fmt"

	"mccp/internal/firmware"
	"mccp/internal/obs"
	"mccp/internal/reconfig"
	"mccp/internal/scheduler"
	"mccp/internal/sim"
)

// This file is the cluster's recovery plane — the half of the fault loop
// faults.go leaves open. A crash ends in quarantine: the corpse is out of
// routing, its sessions re-homed, and the fleet serves degraded. Recovery
// closes the loop three ways:
//
//   - Restart rebuilds a quarantined shard from scratch — a fresh device,
//     engine and firmware — and streams the base bitstream back into every
//     reconfigurable region at one of the paper's Table IV source speeds,
//     then rejoins the shard to the healthy pool. This is the paper's
//     partial-reconfiguration story applied to fault recovery: a crypto
//     core is a bitstream, so a dead one can be reloaded.
//   - Unquarantine lifts a quarantine that turned out to be premature (a
//     stall the detector or an operator mistook for a crash): the shard
//     never died, its heartbeat resumed, and it only needs re-admitting.
//   - RebalanceInto (migrate.go) shifts load back onto one just-rejoined
//     shard, voice-first, without disturbing placements that would not
//     land there.

// RestartReport summarizes one shard restart.
type RestartReport struct {
	// Shard is the rebuilt shard; Took the virtual time its configuration
	// controller spent streaming the base bitstream into every core region
	// (plus the per-core 1024-word firmware image rewrite) at the chosen
	// source speed.
	Shard int
	Took  sim.Time
}

// RestartCycles returns the expected virtual duration of a shard restart
// from src: every core region is rewritten with the base AES bitstream
// through the single ICAP port, so the cost is cores sequential swaps.
// The heal controller (internal/fleet) uses it to schedule the rejoin
// window before the restart has run.
func RestartCycles(cores int, src reconfig.Source) sim.Time {
	per := src.Cycles(reconfig.BitstreamBytes(reconfig.EngineAES.Component()), sim.DefaultFreqHz) +
		firmware.ImageWordsLoadCycles
	return sim.Time(cores) * per
}

// Restart rebuilds a quarantined shard and rejoins it to the healthy
// pool. The corpse's goroutine is stopped, a fresh platform (engine,
// device, controllers, shaper) takes its slot, and the base bitstream is
// streamed back into every core's reconfigurable region from src —
// sequentially, one ICAP port — on the new shard's own virtual timeline.
// On success the quarantine is cleared and the shard re-admitted to
// routing (it boots the base all-AES image; re-apply Whirlpool swaps via
// the fleet afterwards if the shard carried any). The shard must hold no
// sessions: run FailOver first.
func (c *Cluster) Restart(id int, src reconfig.Source) (RestartReport, error) {
	rep := RestartReport{Shard: id}
	if id < 0 || id >= c.cfg.Shards {
		return rep, fmt.Errorf("cluster: no shard %d", id)
	}
	if !c.quarantined[id] {
		return rep, fmt.Errorf("cluster: shard %d is not quarantined; Restart only rebuilds corpses", id)
	}
	c.Flush()
	for _, ses := range c.sessions {
		if ses.shardID == id {
			return rep, fmt.Errorf("cluster: shard %d still homes session %d (run FailOver first)", id, ses.id)
		}
	}
	// Stop the corpse. Its ring drained at the flush barrier, so the
	// goroutine exits as soon as the channel closes.
	old := c.shards[id]
	close(old.sub)
	<-old.done
	// Rebuild the platform in its slot. The shard stays flagged drained +
	// quarantined until the bitstream reload below succeeds, so Snapshot
	// readers never see a half-recovered shard as serving. The corpse's
	// flight-recorder dumps are archived first — the crash postmortem must
	// survive the rebuild — and the slot swap happens under obsMu so
	// Postmortems never reads a half-replaced shards slice.
	pol, _ := scheduler.ByName(c.cfg.Policy) // validated at New
	sh := newShard(id, c.cfg, pol)
	sh.drained.Store(true)
	sh.quarantinedA.Store(true)
	sh.rec.Event(sh.base, obs.EvRestart, "rebuilt from quarantine (base bitstream reload)")
	c.obsMu.Lock()
	c.postmortems = append(c.postmortems, old.rec.Dumps()...)
	c.shards[id] = sh
	c.obsMu.Unlock()
	// The new shard's batch sequence restarts at zero; reset the front
	// end's pipeline bookkeeping to match. The front end's offered/delivered
	// byte counters stay cumulative — they describe the slot, not the
	// incarnation; the shard-side arrival-program counters restart with the
	// fresh shard, like its packet and cycle counts.
	c.subSeq[id] = 0
	c.perShard[id] = nil
	c.hpPending[id] = 0
	c.hashCores[id] = 0 // base image: every region boots AES
	slot := c.control(id, func(sh *shard, op *pendingOp, done func()) {
		start := sh.eng.Now()
		var next func(coreID int)
		next = func(coreID int) {
			if coreID >= len(sh.dev.Cores) {
				op.took = sh.eng.Now() - start
				done()
				return
			}
			sh.rc.Reconfigure(coreID, reconfig.EngineAES, src, func(_ sim.Time, err error) {
				if err != nil {
					op.err = err
					done()
					return
				}
				next(coreID + 1)
			})
		}
		next(0)
	})
	c.Flush()
	took, err := slot.took, slot.err
	c.putSlot(slot)
	if err != nil {
		return rep, fmt.Errorf("cluster: shard %d restart bitstream load: %w", id, err)
	}
	rep.Took = took
	// Rejoin: the quarantine is over, so SetShardActive re-admits.
	c.quarantined[id] = false
	sh.quarantinedA.Store(false)
	if err := c.SetShardActive(id, true); err != nil {
		return rep, err
	}
	return rep, nil
}

// Unquarantine lifts a quarantine without a rebuild — the un-freeze path
// for a shard that stalled rather than died (its heartbeat resumed, so
// the crash never happened). A genuine corpse (crashed flag set) is
// refused: its shaper is dead and its channel state gone, so only
// Restart can bring it back. Sessions re-homed off the shard while it
// was quarantined stay where they landed; RebalanceInto shifts load back.
func (c *Cluster) Unquarantine(id int) error {
	if id < 0 || id >= c.cfg.Shards {
		return fmt.Errorf("cluster: no shard %d", id)
	}
	if !c.quarantined[id] {
		return fmt.Errorf("cluster: shard %d is not quarantined", id)
	}
	if c.shards[id].crashed.Load() {
		return fmt.Errorf("cluster: shard %d crashed; a corpse needs Restart, not Unquarantine", id)
	}
	c.quarantined[id] = false
	c.shards[id].quarantinedA.Store(false)
	return c.SetShardActive(id, true)
}
