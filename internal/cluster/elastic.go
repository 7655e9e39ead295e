package cluster

import (
	"fmt"

	"mccp/internal/arrivals"
	"mccp/internal/core"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

// This file is the cluster's elastic control surface: the active-shard
// mask the fleet controller drains and re-admits shards through, the
// split Begin/Wait reconfiguration API that lets a bitstream swap run
// concurrently (in virtual time) with a measurement window on the other
// shards, and the OpenLoopRunner — a persistent open-loop arrival driver
// that survives across windows so E15 can measure traffic *during* a
// rolling swap instead of around it.

// SetShardActive marks a shard eligible (active) or ineligible (drained)
// for session placement. An inactive shard is hidden from the routers —
// Open and Rebalance stop placing sessions there — but keeps serving the
// sessions it still holds, so deactivation is always safe: call
// Rebalance afterwards to migrate its sessions voice-first onto the
// remaining shards. The last active shard cannot be deactivated.
func (c *Cluster) SetShardActive(id int, active bool) error {
	if id < 0 || id >= c.cfg.Shards {
		return fmt.Errorf("cluster: no shard %d", id)
	}
	if active && c.quarantined[id] {
		// A quarantined shard is a corpse until the recovery plane clears
		// the flag: Restart rebuilds a crashed shard (the flag drops after
		// the bitstream reload), Unquarantine lifts a premature quarantine
		// on a shard that merely stalled. Until one of those has run,
		// re-admitting it would route live sessions into a black hole. A
		// restarted shard is no longer quarantined and re-activates
		// normally — Fleet.Scale sees it back in the healthy pool.
		return fmt.Errorf("cluster: shard %d is quarantined: Restart a crashed shard or Unquarantine a recovered one before re-admitting it", id)
	}
	if !active {
		rest := 0
		for i, off := range c.inactive {
			if !off && i != id {
				rest++
			}
		}
		if rest == 0 {
			return fmt.Errorf("cluster: cannot deactivate shard %d: it is the last active shard", id)
		}
	}
	c.inactive[id] = !active
	// Mirror into the shard's atomic so Snapshot (any goroutine) can
	// report the serving set without reading front-end state.
	c.shards[id].drained.Store(!active)
	return nil
}

// ShardActive reports whether a shard is eligible for session placement.
func (c *Cluster) ShardActive(id int) bool {
	return id >= 0 && id < c.cfg.Shards && !c.inactive[id]
}

// ActiveShards counts the shards currently eligible for placement.
func (c *Cluster) ActiveShards() int {
	n := 0
	for _, off := range c.inactive {
		if !off {
			n++
		}
	}
	return n
}

// ReconfigOp is an in-flight partial reconfiguration started by
// BeginReconfigure. Wait blocks until the swap's outcome is known.
type ReconfigOp struct {
	c       *Cluster
	slot    *pendingOp
	shardID int
	done    bool
	took    sim.Time
	err     error
}

// BeginReconfigure starts rewriting one core's reconfigurable region on
// one shard (streaming the partial bitstream from src) without waiting
// for it to finish: the swap is enqueued on the shard's timeline and runs
// in the same batch as whatever traffic is dispatched next, so the
// reconfiguration window genuinely overlaps served load. Unlike
// Reconfigure it does not rebalance — the fleet controller owns the
// drain/re-admit sequencing around the swap. Call Wait to collect the
// swap's virtual duration.
func (c *Cluster) BeginReconfigure(shardID, coreID int, target reconfig.Engine, src reconfig.Source) (*ReconfigOp, error) {
	if shardID < 0 || shardID >= c.cfg.Shards {
		return nil, fmt.Errorf("cluster: no shard %d", shardID)
	}
	c.Flush()
	if err := c.checkReconfigLeavesHomes(shardID, coreID, target); err != nil {
		return nil, err
	}
	slot := c.control(shardID, func(sh *shard, op *pendingOp, done func()) {
		sh.rc.Reconfigure(coreID, target, src, func(took sim.Time, err error) {
			op.took, op.err = took, err
			done()
		})
	})
	return &ReconfigOp{c: c, slot: slot, shardID: shardID}, nil
}

// Wait flushes until the swap has completed, releases its slot and
// returns the swap's virtual duration. On success the cluster's routing
// view of the shard's hash cores is refreshed (the caller still decides
// when to Rebalance). Wait is idempotent.
func (op *ReconfigOp) Wait() (sim.Time, error) {
	if !op.done {
		op.c.Flush()
		op.took, op.err = op.slot.took, op.slot.err
		op.c.putSlot(op.slot)
		op.slot = nil
		op.done = true
		if op.err == nil {
			op.c.hashCores[op.shardID] = op.c.shards[op.shardID].hashCores()
		}
	}
	return op.took, op.err
}

// OpenLoopRunnerConfig configures a persistent open-loop arrival driver.
type OpenLoopRunnerConfig struct {
	// Process is the arrival process name (arrivals.ByName); default
	// poisson.
	Process string
	// Profiles is the traffic mix (one profile per class).
	Profiles []arrivals.ClassProfile
	// OfferedMbps is the cluster-total offered load at the modeled clock.
	// The runner splits this fixed cluster-wide rate across its sources,
	// so the total offered load stays constant while sessions re-home
	// between windows — the point of the elastic experiments: fewer
	// serving shards means more offered load per shard, not less total
	// load.
	OfferedMbps float64
	// Seed derives every source's splittable PRNG stream.
	Seed uint64
}

// runnerSource is one persistent arrival source: a session, its fixed
// share of the offered rate, and its private PRNG stream that advances
// across windows.
type runnerSource struct {
	ses  *Session
	prof arrivals.ClassProfile
	rng  *arrivals.Rand
	mean float64
}

// OpenLoopRunner drives an open-loop arrival stream against a shaped
// cluster in measurement windows — the one open-loop driver (RunOpenLoop
// is a fresh cluster plus a single window of it). It runs against a
// caller-owned cluster (so the fleet controller can drain, swap and
// rebalance between windows), its sessions and PRNG streams persist
// across windows (so the arrival sequence is one deterministic stream,
// not a fresh workload per window), and each window reports per-class
// deltas rather than cumulative counters. All virtual-time results are
// deterministic for a given config and window sequence.
type OpenLoopRunner struct {
	cl          *Cluster
	procName    string
	offered     float64
	sources     []runnerSource
	byClass     map[qos.Class]arrivals.ClassProfile
	prevStats   [][qos.NumClasses]qos.ClassStats
	prevSamples [][qos.NumClasses]int
}

// OpenLoopWindow is one measurement window's delta report.
type OpenLoopWindow struct {
	// Horizon is the window length in cycles.
	Horizon sim.Time
	// Classes holds per-class counters for arrivals submitted in this
	// window (every one resolved — windows close with drained queues),
	// highest priority first. Rates are summed across shards, percentiles
	// merged over every shard's samples, which each cell keeps in Samples.
	Classes []qos.ClassCell
	// ArrivalDigests is the per-shard FNV-64a fold of this window's
	// arrival stream; Digest folds them in shard order.
	ArrivalDigests []uint64
	Digest         uint64
	// ShardCycles is each shard's virtual time consumed by the window.
	ShardCycles []sim.Time
	// Errors counts completions with unexpected verdicts.
	Errors int
}

// DeliveredMbps sums the window's delivered per-class throughput.
func (w OpenLoopWindow) DeliveredMbps() float64 {
	total := 0.0
	for _, c := range w.Classes {
		total += c.DeliveredMbps
	}
	return total
}

// NewOpenLoopRunner opens the runner's sessions (class-major, placed by
// the cluster's router) and prepares its per-source PRNG streams. The
// cluster must run per-shard shapers (Config.Shape) with request
// queueing; the caller keeps ownership and must not close the cluster
// while the runner is in use.
func NewOpenLoopRunner(cl *Cluster, cfg OpenLoopRunnerConfig) (*OpenLoopRunner, error) {
	if !cl.Shaped() {
		return nil, fmt.Errorf("cluster: open-loop runner needs a shaped cluster (Config.Shape)")
	}
	if cfg.OfferedMbps <= 0 {
		return nil, fmt.Errorf("cluster: open-loop runner needs a positive offered load")
	}
	procName := cfg.Process
	if procName == "" {
		procName = arrivals.ProcPoisson
	}
	if _, err := arrivals.ByName(procName, 1); err != nil {
		return nil, err
	}
	// One source (one session, placed by the router) per class per shard.
	perClass := cl.Shards()
	r := &OpenLoopRunner{
		cl:          cl,
		procName:    procName,
		offered:     cfg.OfferedMbps,
		byClass:     map[qos.Class]arrivals.ClassProfile{},
		prevStats:   make([][qos.NumClasses]qos.ClassStats, cl.Shards()),
		prevSamples: make([][qos.NumClasses]int, cl.Shards()),
	}
	bitsPerCycle := cfg.OfferedMbps * 1e6 / sim.DefaultFreqHz
	root := arrivals.NewRand(cfg.Seed ^ 0x0E15C3)
	for _, prof := range cfg.Profiles {
		if prof.Share <= 0 || prof.Bytes <= 0 {
			return nil, fmt.Errorf("cluster: profile %v needs positive share and size", prof.Class)
		}
		if _, dup := r.byClass[prof.Class]; dup {
			return nil, fmt.Errorf("cluster: duplicate %v profile in open-loop mix", prof.Class)
		}
		r.byClass[prof.Class] = prof
		for s := 0; s < perClass; s++ {
			suite := core.Suite{Family: prof.Family, TagLen: prof.TagLen, Priority: prof.Class.Priority()}
			ses, err := cl.Open(OpenSpec{Suite: suite, KeyLen: prof.KeyLen})
			if err != nil {
				return nil, fmt.Errorf("cluster: opening %v runner session %d: %w", prof.Class, s, err)
			}
			r.sources = append(r.sources, runnerSource{
				ses:  ses,
				prof: prof,
				rng:  root.Split(),
				// The class rate splits evenly across the class's sources
				// and stays fixed no matter where the router homes them.
				mean: prof.MeanGap(bitsPerCycle) * float64(perClass),
			})
		}
	}
	if len(r.sources) == 0 {
		return nil, fmt.Errorf("cluster: open-loop runner needs at least one profile")
	}
	r.Resnapshot()
	return r, nil
}

// Resnapshot records the current per-shard shaper counters and latency
// sample counts, the baseline the next window's deltas subtract. The
// runner takes it after every window; call it after Restart swaps a
// rebuilt shard into the cluster too — the fresh shard's shaper counters
// start at zero, so the next window's deltas against the old
// incarnation's baseline would go negative.
func (r *OpenLoopRunner) Resnapshot() {
	for s, sh := range r.cl.shards {
		for _, class := range qos.Classes() {
			r.prevStats[s][class] = sh.shaper.Stats(class)
			r.prevSamples[s][class] = len(sh.shaper.LatencySamplesFrom(class, 0))
		}
	}
}

// statsDelta subtracts the monotone counters of prev from cur. Queue
// gauges keep the current value; the per-shaper interval fields are
// zeroed (shard timelines are independent).
func statsDelta(cur, prev qos.ClassStats) qos.ClassStats {
	d := cur
	d.Submitted -= prev.Submitted
	d.Completed -= prev.Completed
	d.Shed -= prev.Shed
	d.Rejected -= prev.Rejected
	d.Failed -= prev.Failed
	d.Expired -= prev.Expired
	d.Aged -= prev.Aged
	d.Bytes -= prev.Bytes
	d.DeadlineMisses -= prev.DeadlineMisses
	d.FirstDispatch = 0
	d.LastCompletion = 0
	return d
}

// RunWindow drives every source for horizon cycles on its session's
// current shard and returns that window's per-class deltas. The window
// is closed: every arrival submitted inside it has a verdict before
// RunWindow returns, so counters never bleed across windows. Sessions
// keep their PRNG streams, so consecutive windows continue one
// deterministic arrival sequence.
func (r *OpenLoopRunner) RunWindow(horizon sim.Time) (OpenLoopWindow, error) {
	if horizon == 0 {
		return OpenLoopWindow{}, fmt.Errorf("cluster: open-loop window needs a positive horizon")
	}
	// Group sources by their session's current home. Source order is
	// fixed (class-major open order), so the grouping — and with it the
	// per-shard emitter indices and digests — is deterministic for a
	// given rebalance history.
	r.cl.Flush()
	programs := make([]*openLoopProgram, r.cl.Shards())
	for i := range programs {
		programs[i] = &openLoopProgram{digest: arrivals.DigestInit}
	}
	for _, src := range r.sources {
		p := programs[src.ses.Shard()]
		p.sources = append(p.sources, src)
	}
	for shardID, p := range programs {
		if len(p.sources) == 0 {
			continue
		}
		p.slot = r.cl.control(shardID, func(sh *shard, op *pendingOp, done func()) {
			runOpenLoopShard(sh, p, r.procName, horizon, done)
		})
	}
	r.cl.Flush()
	w := OpenLoopWindow{
		Horizon:        horizon,
		ArrivalDigests: make([]uint64, r.cl.Shards()),
		Digest:         arrivals.DigestInit,
		ShardCycles:    make([]sim.Time, r.cl.Shards()),
	}
	for shardID, p := range programs {
		if p.slot != nil {
			r.cl.putSlot(p.slot)
		}
		w.ArrivalDigests[shardID] = p.digest
		w.Digest = (w.Digest ^ p.digest) * 0x100000001b3
		w.ShardCycles[shardID] = p.cycles
		w.Errors += p.errors
	}

	w.Classes = make([]qos.ClassCell, 0, qos.NumClasses)
	for _, class := range qos.Classes() {
		prof, have := r.byClass[class]
		acc := qos.ClassStats{Class: class}
		var samples []sim.Time
		for s, sh := range r.cl.shards {
			acc.Accumulate(statsDelta(sh.shaper.Stats(class), r.prevStats[s][class]))
			samples = append(samples, sh.shaper.LatencySamplesFrom(class, r.prevSamples[s][class])...)
		}
		if !have && acc.Submitted == 0 {
			continue
		}
		cell := qos.NewClassCell(acc, samples, prof.Bytes, horizon)
		cell.Samples = samples
		w.Classes = append(w.Classes, cell)
	}
	r.Resnapshot()
	return w, nil
}

// Sources returns the number of persistent arrival sources.
func (r *OpenLoopRunner) Sources() int { return len(r.sources) }

// Close closes the runner's sessions (the cluster stays usable).
func (r *OpenLoopRunner) Close() {
	for _, src := range r.sources {
		src.ses.Close()
	}
	r.sources = nil
}
