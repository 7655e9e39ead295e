package cluster

import (
	"fmt"
	"math"
	"strings"

	"mccp/internal/qos"
	"mccp/internal/sim"
	"mccp/internal/verdict"
)

// Verdict indices for the Cluster.verdicts counters: the shared
// verdict.Verdict values, so the cluster counters, the public mccp.Verdict
// and the server's wire statuses all derive from the one table in
// internal/verdict.
const (
	vOK         = int(verdict.OK)
	vRejected   = int(verdict.Rejected)
	vShed       = int(verdict.Shed)
	vExpired    = int(verdict.Expired)
	vAged       = int(verdict.Aged)
	vAuthFail   = int(verdict.AuthFail)
	vFailed     = int(verdict.Failed)
	numVerdicts = verdict.Num
)

// verdictIndex classifies a delivered operation's error into the wire
// verdict the server front end reports as a protocol status code.
func verdictIndex(err error) int { return int(verdict.For(err)) }

// VerdictCounts tallies delivered packet operations by wire verdict: OK
// for clean completions, Rejected for the paper's no-idle-core error
// flag, Shed/Expired/Aged for the QoS admission verdicts, AuthFail for
// failed tag verification, Failed for anything else. Control operations
// (open/close/reconfigure) are not counted.
type VerdictCounts struct {
	OK       uint64
	Rejected uint64
	Shed     uint64
	Expired  uint64
	Aged     uint64
	AuthFail uint64
	Failed   uint64
}

// Total sums every verdict bucket.
func (v VerdictCounts) Total() uint64 {
	return v.OK + v.Rejected + v.Shed + v.Expired + v.Aged + v.AuthFail + v.Failed
}

// ShardMetrics is one shard's counter snapshot.
type ShardMetrics struct {
	Shard    int
	Sessions int
	// Packets counts fully round-tripped packets. Bytes is the payload
	// volume actually delivered (successful operations only);
	// OfferedBytes additionally includes rejected/failed traffic.
	Packets      uint64
	Bytes        uint64
	OfferedBytes uint64
	// Device counters, same semantics as the single-device core.Stats:
	// Rejected is the paper's error flag, Queued a request that waited in
	// the QoS queue, Shed a request dropped at the bounded queue;
	// AuthFails counts AUTH_FAIL results and KeyExpansions the Key
	// Scheduler's expansions.
	AuthFails     uint64
	Rejected      uint64
	Queued        uint64
	Shed          uint64
	KeyExpansions uint64
	CrossbarBusy  sim.Time
	// Cycles is the shard's consumed virtual time; SimMbps the shard's
	// throughput at the modeled 190 MHz over that time.
	Cycles  sim.Time
	SimMbps float64
	// PendingOps counts operations queued for the next batch.
	PendingOps int
	// Heartbeat counts batches the shard has served while healthy; it
	// freezes the moment an injected crash fires, so a failure detector
	// comparing successive snapshots can tell a dead shard (frozen
	// heartbeat, offered bytes still growing) from an idle one. Crashed
	// mirrors the shard's crash flag; Active whether the shard is in the
	// routing set; Quarantined whether a fail-over declared it dead. All
	// four are atomically published, safe in Snapshot from any goroutine.
	Heartbeat   uint64
	Crashed     bool
	Active      bool
	Quarantined bool
	// Classes is the shard shaper's per-class counter snapshot, highest
	// priority first (nil unless the cluster runs per-shard shapers).
	Classes []qos.ClassStats
}

// Metrics is the aggregated cluster snapshot.
type Metrics struct {
	Shards []ShardMetrics

	// Totals across shards (Bytes = delivered; OfferedBytes includes
	// rejected traffic; Rejected/Queued/Shed keep the single-device
	// split of saturation outcomes).
	Packets      uint64
	Bytes        uint64
	OfferedBytes uint64
	AuthFails    uint64
	Rejected     uint64
	Queued       uint64
	Shed         uint64

	// Verdicts is the per-verdict split of every delivered packet
	// operation in wire-protocol terms (OK/Rejected/Shed/Expired/Aged/
	// AuthFail/Failed), counted at delivery on the front end.
	Verdicts VerdictCounts

	// Classes aggregates the per-shard shaper counters across the cluster,
	// highest priority first (nil unless the cluster runs per-shard
	// shapers). Interval fields stay zero — shard timelines are
	// independent; Cluster.ClassLatencyPercentile merges latency samples.
	Classes []qos.ClassStats

	// Batches counts per-shard batch dispatches; Flushes counts front-end
	// flush barriers.
	Batches uint64
	Flushes uint64

	// ClusterCycles is the slowest shard's virtual time — shards run
	// concurrently, so this is the cluster's virtual makespan — and
	// AggregateSimMbps the total traffic over it at 190 MHz.
	ClusterCycles    sim.Time
	AggregateSimMbps float64

	// WallSeconds is host time during which the pipeline had batches in
	// flight (dispatch to drained); HostMbps is the wall-clock throughput
	// of the simulation itself (nondeterministic, unlike every
	// virtual-time figure above).
	WallSeconds float64
	HostMbps    float64
}

// Metrics snapshots the cluster without stopping the pipeline: per-shard
// device counters come from the snapshot each shard publishes after every
// completed batch, and byte counters reflect delivered operations. After
// a Flush the snapshot is exact; mid-pipeline it trails by at most the
// batches still in flight. Metrics is front-end-only (it delivers ready
// completions first); any other goroutine must use Snapshot.
func (c *Cluster) Metrics() Metrics {
	c.deliverReady()
	return c.buildMetrics(true)
}

// Snapshot builds the same aggregated view as Metrics but is safe to call
// from any goroutine while the pipeline runs — the server front end polls
// it without stopping shards. It never touches front-end-only state:
// PendingOps is reported as 0 and delivered-byte/verdict counters reflect
// operations the front-end goroutine has delivered so far.
func (c *Cluster) Snapshot() Metrics {
	return c.buildMetrics(false)
}

func (c *Cluster) buildMetrics(frontEnd bool) Metrics {
	m := Metrics{
		Batches:     c.batches.Load(),
		Flushes:     c.flushes.Load(),
		WallSeconds: math.Float64frombits(c.wallSeconds.Load()),
		Verdicts: VerdictCounts{
			OK:       c.verdicts[vOK].Load(),
			Rejected: c.verdicts[vRejected].Load(),
			Shed:     c.verdicts[vShed].Load(),
			Expired:  c.verdicts[vExpired].Load(),
			Aged:     c.verdicts[vAged].Load(),
			AuthFail: c.verdicts[vAuthFail].Load(),
			Failed:   c.verdicts[vFailed].Load(),
		},
	}
	for i, sh := range c.shards {
		snap := sh.snap.Load()
		cyc := snap.cycles
		// Front-end deliveries plus whatever arrival programs completed on
		// the shard itself (zero on the wire and closed-loop paths).
		done := c.bytesDone[i].Load() + snap.progBytes
		pending := 0
		if frontEnd {
			pending = len(c.perShard[i])
		}
		sm := ShardMetrics{
			Shard:         i,
			Sessions:      int(c.shardSessions[i].Load()),
			Packets:       snap.completions,
			Bytes:         done,
			OfferedBytes:  c.bytesRouted[i].Load() + snap.progOffered,
			AuthFails:     snap.authFails,
			Rejected:      snap.rejected,
			Queued:        snap.queued,
			Shed:          snap.shed,
			KeyExpansions: snap.keyExpansions,
			CrossbarBusy:  snap.crossbarBusy,
			Cycles:        cyc,
			SimMbps:       mbpsAt190(done*8, cyc),
			PendingOps:    pending,
			Heartbeat:     snap.heartbeat,
			Crashed:       snap.crashed,
			Active:        !sh.drained.Load(),
			Quarantined:   sh.quarantinedA.Load(),
			Classes:       snap.classes,
		}
		m.Shards = append(m.Shards, sm)
		for k, cs := range snap.classes {
			if m.Classes == nil {
				m.Classes = make([]qos.ClassStats, len(snap.classes))
				for j := range m.Classes {
					m.Classes[j].Class = snap.classes[j].Class
				}
			}
			m.Classes[k].Accumulate(cs)
		}
		m.Packets += sm.Packets
		m.Bytes += sm.Bytes
		m.OfferedBytes += sm.OfferedBytes
		m.AuthFails += sm.AuthFails
		m.Rejected += sm.Rejected
		m.Queued += sm.Queued
		m.Shed += sm.Shed
		if cyc > m.ClusterCycles {
			m.ClusterCycles = cyc
		}
	}
	m.AggregateSimMbps = mbpsAt190(m.Bytes*8, m.ClusterCycles)
	if m.WallSeconds > 0 {
		m.HostMbps = float64(m.Bytes*8) / m.WallSeconds / 1e6
	}
	return m
}

func mbpsAt190(bits uint64, cycles sim.Time) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bits) / float64(cycles) * sim.DefaultFreqHz / 1e6
}

// Format renders the snapshot as a fixed-width report.
func (m Metrics) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %9s %9s %10s %10s %8s %8s %8s %8s %12s\n",
		"shard", "sessions", "packets", "bytes", "Mbps@190", "keyexp", "queued", "rejects", "shed", "cycles")
	for _, s := range m.Shards {
		fmt.Fprintf(&b, "%-6d %9d %9d %10d %10.0f %8d %8d %8d %8d %12d\n",
			s.Shard, s.Sessions, s.Packets, s.Bytes, s.SimMbps,
			s.KeyExpansions, s.Queued, s.Rejected, s.Shed, s.Cycles)
	}
	fmt.Fprintf(&b, "total: %d packets, %d bytes in %d cycles -> %.0f Mbps aggregate at 190 MHz\n",
		m.Packets, m.Bytes, m.ClusterCycles, m.AggregateSimMbps)
	fmt.Fprintf(&b, "host:  %d batches over %d flushes in %.1f ms -> %.0f Mbps wall-clock\n",
		m.Batches, m.Flushes, m.WallSeconds*1e3, m.HostMbps)
	if len(m.Classes) > 0 {
		fmt.Fprintf(&b, "%-12s %10s %10s %8s %8s %8s %8s %10s\n",
			"class", "submitted", "completed", "shed", "expired", "aged", "misses", "bytes")
		for _, cs := range m.Classes {
			fmt.Fprintf(&b, "%-12s %10d %10d %8d %8d %8d %8d %10d\n",
				cs.Class, cs.Submitted, cs.Completed, cs.Shed, cs.Expired, cs.Aged,
				cs.DeadlineMisses, cs.Bytes)
		}
	}
	return b.String()
}
