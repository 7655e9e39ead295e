// Package mccp is the public API of the reconfigurable Multi-Core
// Crypto-Processor (MCCP) model — a cycle-calibrated reproduction of
// "A Reconfigurable Multi-core Cryptoprocessor for Multi-channel
// Communication Systems" (Grand et al., IPDPS 2011).
//
// A Platform bundles the simulated device (four Cryptographic Cores by
// default, Task Scheduler, Key Scheduler, Cross Bar) with the radio-side
// controllers the paper assumes (communication controller and main
// controller). Channels are opened with a cipher suite and a provisioned
// session key, then encrypt/decrypt packets with AES-GCM, AES-CCM (one- or
// two-core), CTR or CBC-MAC semantics — all executed by firmware on the
// simulated 8-bit core controllers, cycle-by-cycle, at a modeled 190 MHz.
//
//	p, _ := mccp.NewPlatform()
//	key, _ := p.NewKey(16)
//	ch, _ := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
//	sealed, _ := ch.Encrypt(nonce, aad, payload)
//	plain, err := ch.Decrypt(nonce, aad, sealed[:len(payload)], sealed[len(payload):])
//
// The synchronous methods drive the discrete-event simulation internally;
// Cycles and Elapsed expose the virtual clock for performance studies.
package mccp

import (
	"fmt"

	"mccp/internal/cluster"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/faults"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/radio"
	"mccp/internal/reconfig"
	"mccp/internal/scheduler"
	"mccp/internal/sim"
	"mccp/internal/verdict"
)

// Family selects a channel's mode of operation.
type Family = cryptocore.Family

// Supported families.
const (
	GCM    = cryptocore.FamilyGCM
	CCM    = cryptocore.FamilyCCM
	CTR    = cryptocore.FamilyCTR
	CBCMAC = cryptocore.FamilyCBCMAC
	Hash   = cryptocore.FamilyHash
)

// Suite configures a channel (re-exported from the device layer).
type Suite = core.Suite

// Policy selects the Task Scheduler dispatch policy. It is a typed name:
// string literals still convert implicitly at construction sites, but a
// Policy in an API signature documents the value set and routes through
// one validation (ParsePolicy / the constructors).
type Policy string

// The dispatch policies.
const (
	PolicyFirstIdle   Policy = "first-idle"
	PolicyRoundRobin  Policy = "round-robin"
	PolicyKeyAffinity Policy = "key-affinity"
	// PolicyQoSPriority reserves cores for high-priority (video/voice
	// class) channels: the §VIII quality-of-service dispatch policy.
	PolicyQoSPriority Policy = "qos-priority"
)

// Policies lists the selectable dispatch policies.
func Policies() []Policy {
	return []Policy{PolicyFirstIdle, PolicyRoundRobin, PolicyKeyAffinity, PolicyQoSPriority}
}

// ParsePolicy validates a user-supplied policy name (CLI flags, config
// files) against the scheduler registry. The empty string selects the
// default (first-idle, the paper's §III.C behaviour).
func ParsePolicy(name string) (Policy, error) {
	if _, err := scheduler.ByName(name); err != nil {
		return "", err
	}
	return Policy(name), nil
}

// Engine identifies a reconfigurable-region payload for Reconfigure.
type Engine = reconfig.Engine

// Reconfiguration targets and bitstream sources.
const (
	EngineAES       = reconfig.EngineAES
	EngineWhirlpool = reconfig.EngineWhirlpool
)

// Bitstream sources with the paper's measured bandwidths, plus the
// native-ICAP fast-source ceiling the paper points at for future work.
var (
	FromCompactFlash = reconfig.CompactFlash
	FromRAM          = reconfig.StagingRAM
	FromICAP         = reconfig.FastICAP
)

// ErrAuth is returned when an authenticated decryption fails; the device
// flushes the output FIFO so no unauthenticated plaintext is readable.
var ErrAuth = radio.ErrAuth

// ErrNoResources is the paper's error flag: no idle core and queueing
// disabled.
var ErrNoResources = core.ErrNoResources

// ErrQueueFull is the bounded-queue verdict: the device request queue hit
// WithQueueing bound and shed the request (see Stats.Shed).
var ErrQueueFull = core.ErrQueueFull

// ErrShed is the QoS shaper's admission verdict: a class queue was full.
var ErrShed = qos.ErrShed

// ErrExpired is the QoS shaper's deadline verdict: the packet's deadline
// passed while it was still queued, so it was dropped at dispatch time.
var ErrExpired = qos.ErrExpired

// ErrAged is the QoS shaper's in-queue aging verdict: the packet sat in
// its class queue longer than the configured AgeLimit.
var ErrAged = qos.ErrAged

// Verdict is the typed classification of a packet outcome, shared by the
// whole stack: its numeric values index the cluster's per-verdict
// counters and equal the server wire protocol's status codes, so there
// is exactly one mapping from error to counter to wire status. The
// sentinel errors above remain the values operations return (== and
// errors.Is keep working); Verdict is how they are classified.
type Verdict = verdict.Verdict

// The verdicts, in wire-protocol status order.
const (
	VerdictOK       = verdict.OK
	VerdictRejected = verdict.Rejected
	VerdictShed     = verdict.Shed
	VerdictExpired  = verdict.Expired
	VerdictAged     = verdict.Aged
	VerdictAuthFail = verdict.AuthFail
	VerdictFailed   = verdict.Failed
)

// VerdictFor classifies an operation's returned error: nil is VerdictOK,
// ErrNoResources VerdictRejected, ErrShed and ErrQueueFull VerdictShed,
// ErrExpired VerdictExpired, ErrAged VerdictAged, ErrAuth
// VerdictAuthFail, anything else VerdictFailed.
func VerdictFor(err error) Verdict { return verdict.For(err) }

// Platform is a simulated radio: the MCCP plus its surrounding controllers.
type Platform struct {
	// Eng is the discrete-event engine (190 MHz virtual clock).
	Eng *sim.Engine
	// Dev is the MCCP device; exported for instrumentation and advanced
	// (asynchronous) protocol use.
	Dev *core.MCCP
	// CC and MC are the communication and main controllers.
	CC *radio.CommController
	MC *radio.MainController

	rc *reconfig.Controller
}

// Options collects every knob the constructors accept. Use the With*
// functional options rather than filling this struct directly; it is
// exported so callers can inspect what an option set resolves to.
type Options struct {
	// Device scope (NewPlatform, and each shard under NewFleet).
	Cores         int
	Policy        Policy
	QueueRequests bool
	MaxQueue      int
	Seed          uint64

	// Fleet scope (NewFleet only; NewPlatform rejects them).
	Shards int
	Router string
	Shape  bool
	Shaper ShaperConfig
}

// Option configures NewPlatform or NewFleet.
type Option func(*Options)

// WithCores sets the Cryptographic Core count (per shard under NewFleet;
// default 4, the paper's implementation).
func WithCores(n int) Option { return func(o *Options) { o.Cores = n } }

// WithPolicy selects the dispatch policy (validated at construction).
func WithPolicy(p Policy) Option { return func(o *Options) { o.Policy = p } }

// WithQueueing enables the §VIII QoS extension: saturating requests wait
// in a priority queue instead of drawing the paper's error flag. max
// bounds the queue (0 = unbounded; overflow is shed with a Shed verdict).
func WithQueueing(max int) Option {
	return func(o *Options) { o.QueueRequests, o.MaxQueue = true, max }
}

// WithSeed drives deterministic session-key generation.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithShards sets the fleet's shard-pool size (NewFleet only).
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithRouter selects the fleet's session-routing policy by name
// (NewFleet only; see the Router* constants).
func WithRouter(name string) Option { return func(o *Options) { o.Router = name } }

// WithShaping gives every shard a QoS shaper between the batch pump and
// the device (NewFleet only): per-class queues, drain policy, admission
// control and virtual-time latency percentiles.
func WithShaping(cfg ShaperConfig) Option {
	return func(o *Options) { o.Shape, o.Shaper = true, cfg }
}

func resolve(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewPlatform builds a single-device Platform. It is the validating
// constructor: an unknown policy or a fleet-scope option is an error,
// never a panic or a misconfigured platform.
func NewPlatform(opts ...Option) (*Platform, error) {
	o := resolve(opts)
	if o.Shards != 0 || o.Router != "" || o.Shape {
		return nil, fmt.Errorf("mccp: fleet-scope option on NewPlatform (use NewFleet)")
	}
	pol, err := scheduler.ByName(string(o.Policy))
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{
		Cores:         o.Cores,
		Policy:        pol,
		QueueRequests: o.QueueRequests,
		MaxQueue:      o.MaxQueue,
	})
	p := &Platform{
		Eng: eng,
		Dev: dev,
		CC:  radio.NewCommController(dev),
		MC:  radio.NewMainController(dev, o.Seed^0xD1CE),
		rc:  reconfig.NewController(eng, dev),
	}
	eng.Run() // settle core firmware into its idle loop
	return p, nil
}

// Cycles returns the current virtual time in clock cycles.
func (p *Platform) Cycles() sim.Time { return p.Eng.Now() }

// Elapsed returns the virtual wall-clock time in seconds at 190 MHz.
func (p *Platform) Elapsed() float64 { return p.Eng.CyclesToSeconds(p.Eng.Now()) }

// NewKey generates and provisions a session key (16, 24 or 32 bytes) and
// returns its key ID. Key bytes never cross the MCCP data port.
func (p *Platform) NewKey(keyLen int) (int, error) {
	id, _, err := p.MC.ProvisionKey(keyLen)
	return id, err
}

// Channel is an open MCCP channel.
type Channel struct {
	p  *Platform
	id int
	s  Suite
}

// Open opens a channel with the given suite and key.
func (p *Platform) Open(s Suite, keyID int) (*Channel, error) {
	var (
		ch   int
		oerr error
		done bool
	)
	p.CC.OpenChannel(s, keyID, func(c int, err error) {
		ch, oerr, done = c, err, true
	})
	p.Eng.Run()
	if !done {
		return nil, fmt.Errorf("mccp: OPEN did not complete")
	}
	if oerr != nil {
		return nil, oerr
	}
	return &Channel{p: p, id: ch, s: s}, nil
}

// ID returns the device channel ID.
func (c *Channel) ID() int { return c.id }

// Close closes the channel.
func (c *Channel) Close() error {
	var cerr error
	c.p.CC.CloseChannel(c.id, func(err error) { cerr = err })
	c.p.Eng.Run()
	return cerr
}

// run drives one synchronous packet operation.
func (c *Channel) run(op func(cb func([]byte, error))) ([]byte, error) {
	var (
		out  []byte
		oerr error
		done bool
	)
	op(func(b []byte, err error) { out, oerr, done = b, err, true })
	c.p.Eng.Run()
	if !done {
		return nil, fmt.Errorf("mccp: operation did not complete (deadlock)")
	}
	return out, oerr
}

// Encrypt protects one packet, returning ciphertext||tag for GCM/CCM, the
// keystream-XORed data for CTR, or the MAC for CBC-MAC. Nonce sizes: GCM
// 12 bytes, CCM 13 bytes, CTR a 16-byte initial counter block.
func (c *Channel) Encrypt(nonce, aad, payload []byte) ([]byte, error) {
	return c.run(func(cb func([]byte, error)) { c.p.CC.Encrypt(c.id, nonce, aad, payload, cb) })
}

// Decrypt verifies and recovers one packet; ErrAuth on tag mismatch.
func (c *Channel) Decrypt(nonce, aad, ct, tag []byte) ([]byte, error) {
	return c.run(func(cb func([]byte, error)) { c.p.CC.Decrypt(c.id, nonce, aad, ct, tag, cb) })
}

// Sum hashes msg on a Whirlpool channel (after Reconfigure), returning the
// 512-bit digest.
func (c *Channel) Sum(msg []byte) ([]byte, error) {
	return c.run(func(cb func([]byte, error)) { c.p.CC.Hash(c.id, msg, cb) })
}

// EncryptAsync submits a packet without draining the simulation; pair with
// Run for pipelined multi-packet studies.
func (c *Channel) EncryptAsync(nonce, aad, payload []byte, cb func([]byte, error)) {
	c.p.CC.Encrypt(c.id, nonce, aad, payload, cb)
}

// DecryptAsync is the asynchronous variant of Decrypt.
func (c *Channel) DecryptAsync(nonce, aad, ct, tag []byte, cb func([]byte, error)) {
	c.p.CC.Decrypt(c.id, nonce, aad, ct, tag, cb)
}

// Run drains all pending simulation events (completes every async packet).
func (p *Platform) Run() { p.Eng.Run() }

// Reconfigure rewrites a core's reconfigurable region with the target
// engine, streaming the partial bitstream from the given source. The other
// cores keep processing during the swap.
func (p *Platform) Reconfigure(coreID int, target Engine, src reconfig.Source) (sim.Time, error) {
	var (
		took sim.Time
		rerr error
	)
	p.rc.Reconfigure(coreID, target, src, func(d sim.Time, err error) { took, rerr = d, err })
	p.Eng.Run()
	return took, rerr
}

// Stats is a device-level counter snapshot. Saturation splits into three
// disjoint outcomes: Rejected (the paper's error flag, queueing off),
// Queued (waited in the QoS queue) and Shed (dropped at the bounded
// queue) — internal/cluster reports the same three per shard.
type Stats struct {
	Packets       uint64
	AuthFails     uint64
	Rejected      uint64
	Queued        uint64
	Shed          uint64
	KeyExpansions uint64
	CrossbarBusy  sim.Time
}

// Cluster is the sharded multi-MCCP service layer: N independent
// Platforms run concurrently (one goroutine and one simulation engine
// each) behind a routing, batching and metrics front end. See
// internal/cluster for the full documentation.
type Cluster = cluster.Cluster

// ClusterConfig sizes a Cluster.
type ClusterConfig = cluster.Config

// ClusterSession is a cluster-level channel, homed on one shard and
// transparently re-homed by Rebalance.
type ClusterSession = cluster.Session

// ClusterOpenSpec parameterizes Cluster.Open.
type ClusterOpenSpec = cluster.OpenSpec

// ClusterMetrics is the aggregated cluster snapshot.
type ClusterMetrics = cluster.Metrics

// Cluster routing policies.
const (
	RouterHashByKey      = cluster.RouterHashByKey
	RouterLeastLoaded    = cluster.RouterLeastLoaded
	RouterFamilyAffinity = cluster.RouterFamilyAffinity
	// RouterQoSAware spreads high-priority sessions across shards and
	// steers bulk traffic away from them.
	RouterQoSAware = cluster.RouterQoSAware
)

// NewCluster builds and starts a sharded cluster. Close it to stop the
// shard goroutines.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ErrShardDown is the verdict every packet lost to a crashed shard
// gets: queued work at the moment the injected crash fires and every
// later submission (classified VerdictFailed).
var ErrShardDown = cluster.ErrShardDown

// MoveReport summarizes a session migration (Rebalance, FailOver,
// RebalanceInto): the sessions re-opened on a new shard (voice first),
// the sessions lost, and the virtual re-home latency.
type MoveReport = cluster.MoveReport

// FaultKind is a fault-schedule event type.
type FaultKind = faults.Kind

// The fault kinds: a permanent shard crash (frozen heartbeat, fail-over
// required), a transient shard stall (recovers on its own, must not be
// quarantined), and session open/close churn at a window boundary.
const (
	FaultShardCrash   = faults.ShardCrash
	FaultShardStall   = faults.ShardStall
	FaultSessionChurn = faults.SessionChurn
)

// FaultEvent is one scheduled fault; FaultSchedule a seeded, sorted
// event list the injectors replay deterministically in virtual time.
type (
	FaultEvent    = faults.Event
	FaultSchedule = faults.Schedule
)

// FaultPlanConfig parameterizes PlanFaults.
type FaultPlanConfig = faults.PlanConfig

// PlanFaults draws a deterministic fault schedule from the config's
// seed: distinct crash victims (at least one shard always survives),
// mid-window fire offsets, stalls on survivors, per-window churn.
func PlanFaults(cfg FaultPlanConfig) (FaultSchedule, error) { return faults.Plan(cfg) }

// BrownoutDeny computes the degradation mask for an offered load above
// the serving capacity: classes are shed background→data→video in
// order, and voice is never denied. The zero mask restores admission.
func BrownoutDeny(offeredMbps, capacityMbps float64, share [qos.NumClasses]float64) [qos.NumClasses]bool {
	return faults.BrownoutDeny(offeredMbps, capacityMbps, share)
}

// Fleet is the elastic control plane over a Cluster: rolling per-shard
// algorithm swaps (drain voice-first, rewrite the reconfigurable region
// while the remaining shards keep serving, re-admit) and scale-out/in.
// See internal/fleet for the full documentation.
type Fleet = fleet.Fleet

// FleetSwapReport describes one shard's leg of a rolling swap.
type FleetSwapReport = fleet.SwapReport

// FleetScaleReport describes one Fleet.Scale call.
type FleetScaleReport = fleet.ScaleReport

// NewFleet builds a sharded cluster and binds the elastic control plane
// to it, through the same validating option set as NewPlatform. Close
// the fleet's Cluster to stop the shard goroutines:
//
//	f, _ := mccp.NewFleet(mccp.WithShards(4), mccp.WithPolicy(mccp.PolicyQoSPriority))
//	defer f.Cluster().Close()
func NewFleet(opts ...Option) (*Fleet, error) {
	o := resolve(opts)
	if _, err := scheduler.ByName(string(o.Policy)); err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Shards:        o.Shards,
		CoresPerShard: o.Cores,
		Router:        o.Router,
		Policy:        string(o.Policy),
		QueueRequests: o.QueueRequests,
		MaxQueue:      o.MaxQueue,
		Seed:          o.Seed,
		Shape:         o.Shape,
		Shaper:        o.Shaper,
	})
	if err != nil {
		return nil, err
	}
	return fleet.New(cl), nil
}

// Stats snapshots device counters.
func (p *Platform) Stats() Stats {
	return Stats{
		Packets:       p.CC.Completions,
		AuthFails:     p.Dev.Stats.AuthFails,
		Rejected:      p.Dev.Stats.Rejected,
		Queued:        p.Dev.Stats.Queued,
		Shed:          p.Dev.Stats.Shed,
		KeyExpansions: p.Dev.KeySched.Expansions,
		CrossbarBusy:  p.Dev.XBar.BusyCycles,
	}
}

// QoSClass is a traffic priority class for the QoS subsystem (voice,
// video, data, background); its numeric value is the Suite.Priority tag.
type QoSClass = qos.Class

// The four QoS classes, and the class count.
const (
	QoSBackground = qos.Background
	QoSData       = qos.Data
	QoSVideo      = qos.Video
	QoSVoice      = qos.Voice
	QoSNumClasses = qos.NumClasses
)

// QoS shaper drain-policy names.
const (
	QoSDrainStrict       = qos.DrainStrict
	QoSDrainWeightedFair = qos.DrainWeightedFair
	// QoSDrainDRRBytes drains by deficit round robin over payload bytes,
	// so the configured ratio holds on the wire even with mixed packet
	// sizes (256 B voice frames vs 2 KB bulk).
	QoSDrainDRRBytes = qos.DrainDRRBytes
)

// QoSWeights is the per-class service ratio for the weighted drains,
// indexed by QoSClass.
type QoSWeights = qos.Weights

// Shaper is the QoS front end over a Platform: per-class bounded FIFO
// queues, strict-priority or weighted-fair drain, admission control with
// load-shedding counters, deadline tags and per-class latency
// percentiles. See internal/qos for the full documentation.
type Shaper = qos.Shaper

// ShaperConfig sizes a Shaper.
type ShaperConfig = qos.Config

// QoSClassStats is a per-class shaper counter snapshot.
type QoSClassStats = qos.ClassStats

// NewShaper layers a QoS shaper over the platform's communication
// controller. Packets submitted through the shaper are classed, queued,
// admission-controlled and latency-tracked; pair with PolicyQoSPriority
// (and per-channel Suite.Priority tags) for end-to-end prioritization.
func (p *Platform) NewShaper(cfg ShaperConfig) *Shaper {
	return qos.NewShaper(p.Eng, p.CC, cfg)
}
