package cluster

import (
	"fmt"
	"sort"

	"mccp/internal/sim"
)

// MoveReport summarizes one session migration: Rebalance, the rebalance
// inside Reconfigure, FailOver or RebalanceInto.
type MoveReport struct {
	// Moved counts the sessions re-opened on a new shard. Lost counts the
	// sessions the migration could not keep: the new shard refused the
	// re-open, or the session sat on a quarantined shard and had nowhere
	// to go. A lost session is Closed and gone from the cluster.
	Moved int
	Lost  int
	// Took is the largest virtual-time advance any non-quarantined shard
	// spent on the migration (closes, key re-installs, channel opens): the
	// re-home latency the E16 table reports.
	Took sim.Time
}

// migrate is the cluster's one session-migration primitive. It flushes,
// then offers every session pick selects to the router, voice first:
// class descending, session ID breaking ties. Voice sessions claim the
// best placements before anyone else, and because each move's close on
// the old shard and key re-install + OPEN on the new one are enqueued in
// the same order, a moving voice session's crossbar transfers also run
// ahead of any bulk session's. In-flight work is flushed first, so no
// packet straddles a move. Each session's own load is withdrawn while it
// is routed, so a heavy session is free to stay put.
//
// onto < 0 accepts any placement the router makes; onto >= 0 applies only
// placements on that shard. A session with no allowed placement stays
// where it is, unless its shard is quarantined: then it is Lost. The old
// shard gets a close unless it is quarantined (a corpse's channel state is
// already gone, and nothing is ever enqueued on one). A session whose
// re-open the new shard refuses is Lost too, with its bookkeeping undone:
// losing one session beats wedging the control plane. LastMoves records
// the sessions moved, in this order.
func (c *Cluster) migrate(pick func(*Session) bool, onto int) MoveReport {
	c.Flush()
	var rep MoveReport
	before := make([]sim.Time, len(c.shards))
	for i, sh := range c.shards {
		before[i] = sh.eng.Now() // safe: the flush barrier idled every shard
	}
	var picked []*Session
	for _, ses := range c.sessions {
		if pick(ses) {
			picked = append(picked, ses)
		}
	}
	sort.Slice(picked, func(i, j int) bool {
		a, b := picked[i], picked[j]
		if a.class != b.class {
			return a.class > b.class
		}
		return a.id < b.id
	})
	type move struct {
		ses  *Session
		to   int
		open *pendingOp
	}
	var moves []move
	var closes []*pendingOp
	for _, ses := range picked {
		from := ses.shardID
		c.place(ses, from, -1)
		to := c.router.Route(ses.info(), c.views())
		if onto >= 0 && to != onto {
			to = -1
		}
		if to < 0 {
			if c.quarantined[from] {
				c.lose(ses)
				rep.Lost++
				continue
			}
			to = from
		}
		c.place(ses, to, 1)
		if to == from {
			continue
		}
		if !c.quarantined[from] {
			closes = append(closes, c.closeOn(from, ses.chID, ses.keyID))
		}
		moves = append(moves, move{ses: ses, to: to, open: c.openOn(ses, to)})
	}
	c.Flush()
	for _, slot := range closes {
		c.putSlot(slot) // the close verdict is irrelevant on a move
	}
	c.lastMoves = c.lastMoves[:0]
	for _, m := range moves {
		if m.open.err != nil {
			c.place(m.ses, m.to, -1)
			c.lose(m.ses)
			rep.Lost++
		} else {
			m.ses.shardID = m.to
			m.ses.chID, m.ses.keyID = m.open.chOut, m.open.keyID
			c.lastMoves = append(c.lastMoves, m.ses.id)
			rep.Moved++
		}
		c.putSlot(m.open)
	}
	for i, sh := range c.shards {
		if d := sh.eng.Now() - before[i]; !c.quarantined[i] && d > rep.Took {
			rep.Took = d
		}
	}
	return rep
}

// place adds (d = 1) or withdraws (d = -1) a session's load in a shard's
// routing state.
func (c *Cluster) place(ses *Session, shard, d int) {
	c.shardSessions[shard].Add(int64(d))
	c.shardWeight[shard] += d * ses.weight
	if ses.hp {
		c.shardHPWeight[shard] += d * ses.weight
	}
}

// lose retires a session a migration could not keep; its load is already
// withdrawn.
func (c *Cluster) lose(ses *Session) {
	ses.closed = true
	delete(c.sessions, ses.id)
}

// Rebalance re-routes every session under the current policy and load
// view, re-opening moved sessions on their new shard (the session key is
// re-installed there).
func (c *Cluster) Rebalance() MoveReport {
	return c.migrate(func(*Session) bool { return true }, -1)
}

// FailOver is the full crash response: quarantine the dead shard, then
// re-home every session it held onto the survivors. It is what a failure
// detector calls once a frozen heartbeat has betrayed a crash. A session
// no survivor can serve is Lost: its next packet would have failed anyway.
func (c *Cluster) FailOver(dead int) (MoveReport, error) {
	if !c.QuarantinedShard(dead) {
		if err := c.Quarantine(dead); err != nil {
			return MoveReport{}, err
		}
	}
	return c.migrate(func(s *Session) bool { return s.shardID == dead }, -1), nil
}

// RebalanceInto re-routes sessions toward one just-rejoined shard: every
// session elsewhere is offered to the router, but only moves onto the
// target are applied. Placements the router would shuffle between other
// shards stay put, so rejoining one shard never triggers a cluster-wide
// migration storm.
func (c *Cluster) RebalanceInto(target int) (MoveReport, error) {
	if target < 0 || target >= c.cfg.Shards {
		return MoveReport{}, fmt.Errorf("cluster: no shard %d", target)
	}
	if c.quarantined[target] || c.inactive[target] {
		return MoveReport{}, fmt.Errorf("cluster: shard %d is not serving (rejoin it first)", target)
	}
	return c.migrate(func(s *Session) bool { return s.shardID != target }, target), nil
}
