// Package fleet is the elastic control plane over a cluster: rolling
// per-shard algorithm swaps (drain voice-first, rewrite the
// reconfigurable region while the remaining shards keep serving, then
// re-admit) and scale-in/scale-out of the serving shard set. It is the
// paper's §VII.B runtime agility lifted from a single device to the
// cluster — the machinery behind the E15 "agility cost under traffic"
// experiment. heal.go adds the heal controller: the failure detector and
// the fail-over → brownout → restart → rejoin → lift loop behind E16/E17.
package fleet

import (
	"fmt"

	"mccp/internal/cluster"
	"mccp/internal/firmware"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// Fleet drives elastic operations on a caller-owned cluster. All
// methods are front-end-only (same single-caller discipline as the
// cluster itself).
type Fleet struct {
	cl *cluster.Cluster
}

// New binds a fleet controller to a cluster.
func New(cl *cluster.Cluster) *Fleet { return &Fleet{cl: cl} }

// Cluster returns the underlying cluster.
func (f *Fleet) Cluster() *cluster.Cluster { return f.cl }

// Active returns the number of shards currently serving placements.
func (f *Fleet) Active() int { return f.cl.ActiveShards() }

// FailOver is the fleet-level crash response: quarantine a dead shard
// (detected by its frozen heartbeat in cluster.Snapshot) and re-home
// every session it held onto the survivors, voice first. See
// cluster.FailOver; a quarantined shard stays out of every later Scale
// and RollingSwap rotation.
func (f *Fleet) FailOver(dead int) (cluster.MoveReport, error) {
	return f.cl.FailOver(dead)
}

// ScaleReport describes one Scale call.
type ScaleReport struct {
	// Active is the serving shard count after the call; Moved and Lost
	// are the rebalance's (see cluster.MoveReport).
	Active int
	Moved  int
	Lost   int
}

// Scale sets the serving shard set to shards 0..n-1 and rebalances:
// scale-in drains the retired shards' sessions voice-first onto the
// survivors, scale-out re-admits the reactivated shards and spreads
// load back. The shard pool itself is fixed at construction (the
// hardware exists); Scale changes which shards the routers may use —
// the cluster-scope analogue of powering cores up and down.
func (f *Fleet) Scale(n int) (ScaleReport, error) {
	// Quarantined shards are corpses, not capacity: they stay out of the
	// serving set whatever n says, and the pool shrinks accordingly.
	pool := 0
	for id := 0; id < f.cl.Shards(); id++ {
		if !f.cl.QuarantinedShard(id) {
			pool++
		}
	}
	if n < 1 || n > pool {
		return ScaleReport{}, fmt.Errorf("fleet: cannot scale to %d shards (pool has %d healthy)", n, pool)
	}
	assigned := 0
	for id := 0; id < f.cl.Shards(); id++ {
		if f.cl.QuarantinedShard(id) {
			continue
		}
		active := assigned < n
		if active {
			assigned++
		}
		if err := f.cl.SetShardActive(id, active); err != nil {
			return ScaleReport{}, err
		}
	}
	moves := f.cl.Rebalance()
	return ScaleReport{Active: n, Moved: moves.Moved, Lost: moves.Lost}, nil
}

// SwapReport describes one shard's leg of a rolling swap.
type SwapReport struct {
	Shard int
	// Took is the swap's virtual duration (bitstream stream-in plus the
	// 1024-word controller image rewrite) at the source speed used.
	Took sim.Time
	// Drained counts sessions re-homed off the shard before the swap;
	// Readmitted counts sessions re-homed after it was reactivated; Lost
	// counts sessions either rebalance lost (see cluster.MoveReport).
	Drained    int
	Readmitted int
	Lost       int
}

// SwapWindow returns the expected virtual duration of one swap: the
// bitstream window rolling legs overlap with served traffic.
func SwapWindow(target reconfig.Engine, src reconfig.Source) sim.Time {
	n := reconfig.BitstreamBytes(target.Component())
	return src.Cycles(n, sim.DefaultFreqHz) + firmware.ImageWordsLoadCycles
}

// RollingSwap rewrites core coreID to the target engine on every active
// shard, one shard at a time: deactivate the shard, drain its sessions
// voice-first onto the others (Rebalance), start the bitstream swap
// with BeginReconfigure, run the caller's during hook — the measurement
// window: the remaining shards serve the arrival stream for the
// duration of the bitstream window — then collect the swap and re-admit
// the shard. A nil during hook swaps back-to-back. If during returns an
// error the in-flight swap is still collected and the shard reactivated
// before the error is returned, so the cluster is never left drained.
func (f *Fleet) RollingSwap(coreID int, target reconfig.Engine, src reconfig.Source, during func(shard int, window sim.Time) error) ([]SwapReport, error) {
	window := SwapWindow(target, src)
	var reports []SwapReport
	for id := 0; id < f.cl.Shards(); id++ {
		if !f.cl.ShardActive(id) {
			continue
		}
		// A solo shard swaps in place — there is nowhere to drain to, and
		// the paper's single-device story holds: the other cores keep
		// serving while one region is rewritten.
		solo := f.cl.ActiveShards() == 1
		var drain, readmit cluster.MoveReport
		if !solo {
			if err := f.cl.SetShardActive(id, false); err != nil {
				return reports, err
			}
			drain = f.cl.Rebalance()
		}
		op, err := f.cl.BeginReconfigure(id, coreID, target, src)
		if err != nil {
			if !solo {
				f.cl.SetShardActive(id, true)
				f.cl.Rebalance()
			}
			return reports, fmt.Errorf("fleet: shard %d swap: %w", id, err)
		}
		var duringErr error
		if during != nil {
			duringErr = during(id, window)
		}
		took, swapErr := op.Wait()
		if !solo {
			if err := f.cl.SetShardActive(id, true); err != nil {
				return reports, err
			}
			readmit = f.cl.Rebalance()
		}
		if swapErr != nil {
			return reports, fmt.Errorf("fleet: shard %d swap: %w", id, swapErr)
		}
		if duringErr != nil {
			return reports, duringErr
		}
		reports = append(reports, SwapReport{
			Shard:      id,
			Took:       took,
			Drained:    drain.Moved,
			Readmitted: readmit.Moved,
			Lost:       drain.Lost + readmit.Lost,
		})
	}
	return reports, nil
}

// Reconfigure swaps one core on one shard and rebalances — the
// single-shard form of RollingSwap, delegating to the cluster.
func (f *Fleet) Reconfigure(shardID, coreID int, target reconfig.Engine, src reconfig.Source) (sim.Time, cluster.MoveReport, error) {
	return f.cl.Reconfigure(shardID, coreID, target, src)
}
