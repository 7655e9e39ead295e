// Package cluster runs N independent MCCP platforms ("shards") behind a
// single front end, the first layer of the sharded service architecture
// the ROADMAP calls for. Each shard owns a full simulated device — its
// own discrete-event engine, four cryptographic cores, task/key
// schedulers, crossbar and radio controllers — and is driven by a
// dedicated goroutine, so shards execute concurrently in wall-clock time
// while every shard's virtual timeline stays byte-for-byte deterministic.
//
// The front end provides:
//
//   - pluggable routing policies (hash-by-key, least-loaded,
//     family-affinity, qos-aware) that decide which shard homes each
//     session;
//   - a pipelined batch dispatcher: queued operations coalesce per shard
//     and are pushed onto each shard's bounded submission ring, so
//     routing, shard simulation and completion draining overlap in wall
//     time — no shard waits for another, and the front end only blocks
//     when a ring is full or an explicit Flush needs results;
//   - session management that opens a device channel on the owning shard
//     and transparently re-opens it elsewhere when Rebalance or a shard's
//     reconfiguration makes another home preferable;
//   - an aggregated Metrics snapshot: per-shard and total packets,
//     simulated Mbps at virtual time, and the host-side wall-clock
//     throughput of the simulation itself.
//
// The Cluster front end is single-caller: one goroutine submits work and
// reads results (the shard goroutines are the concurrency). Completion
// callbacks always run on the caller's goroutine in global enqueue order
// — the drainer merges each shard's completion stream back into sequence
// — but they are delivered incrementally as batches finish, not only at
// Flush barriers. Operation input buffers (nonce/AAD/payload) must stay
// untouched until the operation's callback runs.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/radio"
	"mccp/internal/reconfig"
	"mccp/internal/scheduler"
	"mccp/internal/sim"
)

// Config sizes a Cluster.
type Config struct {
	// Shards is the number of independent MCCP platforms (default 2).
	Shards int
	// CoresPerShard sizes each shard's device (default 4, the paper's
	// implementation).
	CoresPerShard int
	// Router selects the session-routing policy by name (default
	// hash-by-key).
	Router string
	// Policy selects each shard's device-level dispatch policy by name
	// (default first-idle).
	Policy string
	// QueueRequests enables the §VIII QoS extension on every shard.
	QueueRequests bool
	// MaxQueue bounds each shard's device request queue when
	// QueueRequests is on (0 = unbounded); overflow is shed with an
	// explicit verdict and counted per shard (see core.Config.MaxQueue).
	MaxQueue int
	// Seed drives deterministic key generation across the cluster.
	Seed uint64
	// BatchWindow is the number of queued operations that triggers an
	// automatic batch dispatch (default 32). Explicit Flush is always
	// allowed.
	BatchWindow int
	// ShardWindow bounds the packets a shard keeps in flight within one
	// batch, pipelining oversized batches instead of saturating the
	// device. Default: 2 x CoresPerShard with QueueRequests on;
	// CoresPerShard with it off, where any oversubscription draws the
	// paper's error flag the instant all cores are busy (a window above
	// the core count with queueing off is allowed, but rejects are then
	// expected behaviour — split-CCM suites halve the effective capacity
	// and should run with queueing on).
	ShardWindow int
	// RingDepth is each shard's submission-ring capacity in batches
	// (default 4): how far the front end may run ahead of a shard before
	// dispatch blocks. Depth only changes wall-clock overlap, never
	// virtual time — batch contents and order are identical at any depth.
	RingDepth int
	// Shape gives every shard its own qos.Shaper between the batch pump
	// and the device, so per-class virtual-time latency percentiles and
	// shed/expired/aged verdicts are attributable per shard and
	// aggregatable across the cluster. Off (the default), the packet path
	// is byte-identical to the unshaped cluster.
	Shape bool
	// Shaper configures the per-shard shapers when Shape is on (drain
	// policy, weights, capacity, class-queue depth, age limit). The zero
	// value is a pass-through shaper that only classes, counts and
	// measures.
	Shaper qos.Config
	// Trace configures per-shard lifecycle tracing (needs Shape — spans
	// open at shaper admission). Each shard derives its own sampling seed
	// and tags spans with its ID; Tag/Classify/OnEnd are overwritten per
	// shard. Disabled (the zero value), the packet path pays only
	// branches and allocates nothing extra.
	Trace obs.TraceConfig
	// FlightDepth sizes each shard's flight-recorder ring in records
	// (0 = obs.DefaultRingDepth). The recorder always runs: lifecycle
	// events (crash, stall, quarantine, brownout, restart) are recorded
	// regardless of tracing; spans join the ring only when Trace is
	// enabled.
	FlightDepth int
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.CoresPerShard <= 0 {
		c.CoresPerShard = 4
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 32
	}
	if c.ShardWindow <= 0 {
		if c.QueueRequests {
			c.ShardWindow = 2 * c.CoresPerShard
		} else {
			c.ShardWindow = c.CoresPerShard
		}
	}
	if c.RingDepth <= 0 {
		c.RingDepth = 4
	}
}

// opKind selects a pendingOp's device operation.
type opKind uint8

const (
	opEncrypt opKind = iota
	opDecrypt
	opHash
	opGeneric
)

// pendingOp is one queued operation: its submission arguments, its result
// slot and its place in the delivery sequence. Slots are pooled on the
// front end; the finish callback is prebuilt once per slot so the packet
// path never allocates a closure. The shard goroutine fills the result
// fields while running the batch; the front end reads them only after
// observing the shard's completed-batch counter (the happens-before
// edge).
type pendingOp struct {
	// Submission (set by the front end before dispatch).
	kind  opKind
	ch    int
	nonce []byte
	aad   []byte
	data  []byte
	tag   []byte
	// class and deadline feed the per-shard shaper (Config.Shape):
	// deadline is a relative virtual-time budget, converted to an
	// absolute shard time at dispatch (the front end cannot know a
	// shard's clock).
	class    qos.Class
	deadline sim.Time
	// run is the opGeneric body (session open/close, reconfiguration).
	run func(sh *shard, op *pendingOp, done func())

	// Results (set by the shard goroutine).
	out   []byte
	chOut int
	keyID int // openOn: the Key Memory ID installed for the channel (0 = none)
	took  sim.Time
	err   error

	// Delivery bookkeeping (front end). cb is the plain completion; cbt
	// the timing-aware variant (EncryptWireAsync/DecryptWireAsync) that
	// also receives the shard-side service latency — cycles from the
	// carrying batch's start to the operation's completion. At most one of
	// the two is set.
	cb     func([]byte, error)
	cbt    func([]byte, sim.Time, error)
	shard  int
	nbytes int
	batch  uint64 // shard-local batch sequence this op ships in
	sh     *shard
	// retain keeps the slot alive past delivery so a barrier caller can
	// read the result fields (Open/Close/Reconfigure); the caller then
	// releases it with putSlot.
	retain bool

	finish func([]byte, error) // prebuilt: store result, notify shard pump
	next   *pendingOp          // pool link
}

// Session is a cluster-level channel: a cipher suite bound to a session
// key, homed on one shard (and re-homed by Rebalance when profitable).
type Session struct {
	cl     *Cluster
	id     int
	suite  core.Suite
	keyLen int
	// key holds the session key inline (satellite of the zero-alloc
	// packet path: no per-open heap copy); key[:keyLen] is the material.
	key    [32]byte
	weight int

	// class is the session's QoS class (from the suite's priority tag);
	// hp marks the high-priority (video/voice) tier the qos-aware router
	// balances separately.
	class qos.Class
	hp    bool

	shardID int
	chID    int // device channel ID on the owning shard
	keyID   int // Key Memory ID of the session key there (0 for hash sessions)
	closed  bool
}

// Cluster is the sharded multi-MCCP front end.
type Cluster struct {
	cfg    Config
	router Router
	shards []*shard

	sessions    map[int]*Session
	nextSession int

	// Per-shard routing state, owned by the front end. bytesRouted is the
	// offered load (routing signal, counted at enqueue); bytesDone counts
	// only payload bytes whose operation completed without error and has
	// been delivered. shardSessions and the byte counters are atomics so
	// Snapshot can read them from any goroutine while the front end runs;
	// they are still written only by the front-end goroutine.
	shardSessions []atomic.Int64
	shardWeight   []int
	// shardHPWeight sums the weights of open high-priority sessions per
	// shard; hpPending counts high-priority operations queued for each
	// shard's next batch (cleared at dispatch). Both feed the qos-aware
	// router.
	shardHPWeight []int
	hpPending     []int
	bytesRouted   []atomic.Uint64
	bytesDone     []atomic.Uint64
	hashCores     []int
	// inactive marks shards withdrawn from routing (fleet drain, scale-in):
	// views() hides them, so Open and Rebalance place sessions only on
	// active shards. An inactive shard keeps running — sessions that cannot
	// re-home anywhere else stay where they are and stay served.
	inactive []bool
	// quarantined marks shards a fail-over has declared dead: inactive
	// for routing, and with channel state treated as lost (migrations
	// never enqueue closes there). See faults.go.
	quarantined []bool

	// Pipeline state: perShard accumulates the next batch per shard,
	// subSeq counts batches pushed onto each shard's ring, order is the
	// global delivery sequence (ordHead its delivered prefix), unpushed
	// the operations enqueued since the last dispatch.
	perShard   [][]*pendingOp
	subSeq     []uint64
	order      []*pendingOp
	ordHead    int
	unpushed   int
	freeSlots  *pendingOp
	delivering bool

	keys *radio.Keystream

	// lastMoves records the session IDs the most recent migration moved,
	// in re-homing order (voice first) — observability for tests.
	lastMoves []int

	flushes atomic.Uint64
	batches atomic.Uint64
	// verdicts tallies the wire-protocol verdict of every delivered packet
	// operation (opGeneric control ops excluded), indexed by the vOK..vFailed
	// constants. Atomics so Snapshot reads them concurrently.
	verdicts [numVerdicts]atomic.Uint64
	// Wall-clock accounting: the pipeline is "active" from a dispatch
	// until every pushed batch has completed and been delivered;
	// wallSeconds accumulates those active intervals (generation overlaps
	// simulation, so this is the honest wall cost of the traffic phase).
	// Stored as float64 bits so Snapshot can read it concurrently.
	active      bool
	activeStart time.Time
	wallSeconds atomic.Uint64
	closed      bool

	// obsMu guards postmortems and the shards slice swap a Restart
	// performs, so Postmortems can read recorder dumps from any goroutine
	// (the server's HTTP endpoint does) while the front end replaces a
	// shard. postmortems archives the dumps of shard incarnations retired
	// by Restart — a rebuilt shard gets a fresh recorder, but its
	// predecessor's crash postmortem must survive the rebuild.
	obsMu       sync.Mutex
	postmortems []obs.Dump
}

// New builds and starts a Cluster; every shard's firmware is settled and
// its goroutine running when New returns.
func New(cfg Config) (*Cluster, error) {
	cfg.fill()
	router, err := RouterByName(cfg.Router)
	if err != nil {
		return nil, err
	}
	if _, err := scheduler.ByName(cfg.Policy); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:           cfg,
		router:        router,
		sessions:      make(map[int]*Session),
		nextSession:   1,
		shardSessions: make([]atomic.Int64, cfg.Shards),
		shardWeight:   make([]int, cfg.Shards),
		shardHPWeight: make([]int, cfg.Shards),
		hpPending:     make([]int, cfg.Shards),
		bytesRouted:   make([]atomic.Uint64, cfg.Shards),
		bytesDone:     make([]atomic.Uint64, cfg.Shards),
		hashCores:     make([]int, cfg.Shards),
		inactive:      make([]bool, cfg.Shards),
		quarantined:   make([]bool, cfg.Shards),
		perShard:      make([][]*pendingOp, cfg.Shards),
		subSeq:        make([]uint64, cfg.Shards),
		keys:          radio.NewKeystream(cfg.Seed ^ 0xC1A5731D),
	}
	for i := 0; i < cfg.Shards; i++ {
		pol, _ := scheduler.ByName(cfg.Policy) // fresh instance per shard
		c.shards = append(c.shards, newShard(i, cfg, pol))
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// CoresPerShard returns each shard's device size (after defaulting).
func (c *Cluster) CoresPerShard() int { return c.cfg.CoresPerShard }

// RouterName returns the active routing policy's name.
func (c *Cluster) RouterName() string { return c.router.Name() }

// Close flushes outstanding work and stops every shard goroutine. The
// cluster must not be used afterwards.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.Flush()
	c.closed = true
	for _, sh := range c.shards {
		close(sh.sub)
		<-sh.done
	}
}

// genKey fills dst with deterministic session-key bytes from the
// cluster's keystream. The front end generates keys itself (rather than
// per-shard ProvisionKey) because the router hashes the key bytes before
// a shard is chosen, and a re-homed session must carry its key to the new
// shard.
func (c *Cluster) genKey(dst []byte) {
	for i := range dst {
		dst[i] = c.keys.Next()
	}
}

// views snapshots per-shard routing state for the router. Inactive
// shards (fleet drain / scale-in) are omitted so routers never place a
// session on them; ShardView.ID keeps the true shard index.
func (c *Cluster) views() []ShardView {
	vs := make([]ShardView, 0, c.cfg.Shards)
	for i := 0; i < c.cfg.Shards; i++ {
		if c.inactive[i] {
			continue
		}
		vs = append(vs, ShardView{
			ID:              i,
			Sessions:        int(c.shardSessions[i].Load()),
			SessionWeight:   c.shardWeight[i],
			Bytes:           c.bytesRouted[i].Load(),
			HashCores:       c.hashCores[i],
			Cores:           c.cfg.CoresPerShard,
			HighPrioWeight:  c.shardHPWeight[i],
			PendingHighPrio: c.hpPending[i],
		})
	}
	return vs
}

// getSlot takes a pooled operation slot (allocating, with its prebuilt
// finish callback, only on pool growth).
func (c *Cluster) getSlot() *pendingOp {
	op := c.freeSlots
	if op == nil {
		op = &pendingOp{}
		op.finish = func(out []byte, err error) {
			op.out, op.err = out, err
			op.took = op.sh.eng.Now() - op.sh.batchStart
			op.sh.opDone()
		}
		return op
	}
	c.freeSlots = op.next
	op.next = nil
	return op
}

// putSlot recycles a delivered slot.
func (c *Cluster) putSlot(op *pendingOp) {
	op.nonce, op.aad, op.data, op.tag = nil, nil, nil, nil
	op.run, op.cb, op.cbt = nil, nil, nil
	op.out, op.err = nil, nil
	op.sh = nil
	op.class, op.deadline, op.took = 0, 0, 0
	op.retain = false
	op.next = c.freeSlots
	c.freeSlots = op
}

// enqueue appends a filled slot to its shard's next batch and records it
// in the global delivery order. hp marks a high-priority (video/voice
// class) packet for the router's pending-depth signal.
func (c *Cluster) enqueue(slot *pendingOp, hp bool) *pendingOp {
	if c.closed {
		panic("cluster: operation submitted after Close")
	}
	shardID := slot.shard
	slot.sh = c.shards[shardID]
	slot.batch = c.subSeq[shardID] + 1
	c.perShard[shardID] = append(c.perShard[shardID], slot)
	c.order = append(c.order, slot)
	c.unpushed++
	c.bytesRouted[shardID].Add(uint64(slot.nbytes))
	if hp {
		c.hpPending[shardID]++
	}
	if c.unpushed >= c.cfg.BatchWindow {
		c.dispatch()
	}
	c.deliverReady()
	return slot
}

// dispatch pushes every non-empty per-shard queue onto its shard's
// submission ring as one batch. It only blocks when a ring is full
// (backpressure); it never waits for completion — that is Flush's job.
// Batch boundaries are a pure function of the enqueue sequence (every
// BatchWindow operations, plus explicit Flush points), so each shard sees
// exactly the batch partitioning the barrier-based dispatcher produced
// and its virtual timeline is unchanged.
func (c *Cluster) dispatch() {
	for i, sh := range c.shards {
		if len(c.perShard[i]) == 0 {
			continue
		}
		if !c.active {
			c.active = true
			c.activeStart = time.Now()
		}
		c.subSeq[i]++
		c.batches.Add(1)
		sh.sub <- batchMsg{ops: c.perShard[i], seq: c.subSeq[i]}
		c.perShard[i] = c.takeOps(sh)
		c.hpPending[i] = 0
	}
	c.unpushed = 0
}

// takeOps grabs a recycled batch slice from the shard, or grows a fresh
// one.
func (c *Cluster) takeOps(sh *shard) []*pendingOp {
	select {
	case ops := <-sh.freeOps:
		return ops
	default:
		return make([]*pendingOp, 0, c.cfg.BatchWindow)
	}
}

// deliverReady delivers every completed operation at the front of the
// global order (the sequence-numbered merge of the per-shard completion
// streams), on the caller's goroutine. Safe to call opportunistically;
// re-entry from inside a callback is a no-op (the outer loop finishes the
// job).
func (c *Cluster) deliverReady() {
	if c.delivering {
		return
	}
	c.delivering = true
	c.deliverLoop()
	c.delivering = false
}

// deliverLoop is deliverReady's body; barrier calls it directly so a
// nested Flush inside a callback (e.g. a synchronous Session.Encrypt)
// still delivers its own results. Each iteration re-reads the cursor, so
// nested delivery composes: a slot is popped exactly once.
func (c *Cluster) deliverLoop() {
	for c.ordHead < len(c.order) {
		slot := c.order[c.ordHead]
		if slot.sh.completed.Load() < slot.batch {
			break
		}
		c.order[c.ordHead] = nil
		c.ordHead++
		// Count delivered bytes before the callback, so a callback
		// reading Metrics sees its own packet accounted for.
		if slot.err == nil {
			c.bytesDone[slot.shard].Add(uint64(slot.nbytes))
		}
		if slot.kind != opGeneric {
			c.verdicts[verdictIndex(slot.err)].Add(1)
		}
		cb, cbt, out, took, err := slot.cb, slot.cbt, slot.out, slot.took, slot.err
		if !slot.retain {
			c.putSlot(slot)
		}
		if cb != nil {
			cb(out, err)
		} else if cbt != nil {
			cbt(out, took, err)
		}
	}
	if c.ordHead == len(c.order) {
		c.order = c.order[:0]
		c.ordHead = 0
		c.checkQuiescent()
	}
}

// checkQuiescent closes the current wall-clock accounting interval once
// every pushed batch has completed and been delivered.
func (c *Cluster) checkQuiescent() {
	if !c.active {
		return
	}
	for i, sh := range c.shards {
		if sh.completed.Load() < c.subSeq[i] {
			return
		}
	}
	c.active = false
	was := math.Float64frombits(c.wallSeconds.Load())
	c.wallSeconds.Store(math.Float64bits(was + time.Since(c.activeStart).Seconds()))
}

// Flush dispatches everything queued, waits for every shard to drain its
// ring, then delivers all remaining completion callbacks in enqueue order
// on the caller's goroutine.
func (c *Cluster) Flush() {
	if c.unpushed == 0 && c.ordHead == len(c.order) {
		return
	}
	c.dispatch()
	c.barrier()
}

// barrier waits until every shard has completed every batch pushed so
// far, then delivers the backlog.
func (c *Cluster) barrier() {
	for i, sh := range c.shards {
		target := c.subSeq[i]
		for sh.completed.Load() < target {
			<-sh.notify
		}
	}
	c.flushes.Add(1)
	c.deliverLoop()
}

// OpenSpec parameterizes Open.
type OpenSpec struct {
	Suite core.Suite
	// KeyLen is the session-key length in bytes (16, 24 or 32); 0 for
	// Whirlpool/hash sessions, which need no key material.
	KeyLen int
	// Weight is the session's expected relative load, used by the
	// least-loaded and family-affinity routers to balance placement
	// before any traffic has flowed (default 1).
	Weight int
}

// Open provisions a session key, routes the session to a shard and opens
// a device channel there. Open flushes any queued operations first.
func (c *Cluster) Open(spec OpenSpec) (*Session, error) {
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	isHash := spec.Suite.Family == cryptocore.FamilyHash
	if isHash {
		spec.KeyLen = 0
	} else {
		switch spec.KeyLen {
		case 16, 24, 32:
		default:
			return nil, fmt.Errorf("cluster: invalid key length %d (want 16, 24 or 32)", spec.KeyLen)
		}
	}
	c.Flush()
	class := qos.ClassForPriority(spec.Suite.Priority)
	ses := &Session{
		cl:     c,
		id:     c.nextSession,
		suite:  spec.Suite,
		keyLen: spec.KeyLen,
		weight: spec.Weight,
		class:  class,
		hp:     class.HighPriority(),
	}
	if !isHash {
		c.genKey(ses.key[:ses.keyLen])
	}
	shardID := c.router.Route(ses.info(), c.views())
	if shardID < 0 {
		if isHash {
			return nil, fmt.Errorf("cluster: no shard has a Whirlpool-reconfigured core (run Reconfigure first)")
		}
		return nil, fmt.Errorf("cluster: no shard can serve family %v", spec.Suite.Family)
	}
	slot := c.openOn(ses, shardID)
	c.Flush()
	err := slot.err
	ses.chID, ses.keyID = slot.chOut, slot.keyID
	c.putSlot(slot)
	if err != nil {
		return nil, err
	}
	c.nextSession++
	ses.shardID = shardID
	c.sessions[ses.id] = ses
	c.place(ses, shardID, 1)
	return ses, nil
}

// control enqueues a generic control operation — session open/close, a
// reconfiguration, a deny mask, an arrival program — on a shard's
// timeline. The returned slot is retained past delivery: the caller reads
// its result after a Flush and releases it with putSlot.
func (c *Cluster) control(shardID int, run func(sh *shard, op *pendingOp, done func())) *pendingOp {
	slot := c.getSlot()
	slot.kind = opGeneric
	slot.retain = true
	slot.shard = shardID
	slot.nbytes = 0
	slot.cb = nil
	slot.run = run
	return c.enqueue(slot, false)
}

// openOn enqueues the install-key + OPEN composite on a shard (a control
// op: read the slot after a Flush, then release it). The slot carries the
// channel and the installed key's ID; closeOn takes both back.
func (c *Cluster) openOn(ses *Session, shardID int) *pendingOp {
	key := ses.key[:ses.keyLen]
	suite := ses.suite
	return c.control(shardID, func(sh *shard, op *pendingOp, done func()) {
		op.keyID = 0
		if len(key) > 0 {
			id, err := sh.mc.InstallKey(key)
			if err != nil {
				op.err = err
				done()
				return
			}
			op.keyID = id
		}
		sh.cc.OpenChannel(suite, op.keyID, func(ch int, err error) {
			if err != nil && op.keyID != 0 {
				sh.mc.RemoveKey(op.keyID) // no channel will ever use it
			}
			op.chOut, op.err = ch, err
			done()
		})
	})
}

// info builds the router's view of the session.
func (s *Session) info() SessionInfo {
	h := fnv.New64a()
	if s.keyLen > 0 {
		h.Write(s.key[:s.keyLen])
	} else {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(s.id))
		h.Write(b[:])
	}
	return SessionInfo{ID: s.id, KeyHash: h.Sum64(), Family: s.suite.Family,
		Weight: s.weight, Priority: s.suite.Priority}
}

// ID returns the cluster-wide session ID.
func (s *Session) ID() int { return s.id }

// Shard returns the shard currently homing the session.
func (s *Session) Shard() int { return s.shardID }

// EncryptAsync queues one packet for the session's shard; cb runs on the
// caller's goroutine — in enqueue order, as soon as the batch that
// carries the packet has completed — receiving ciphertext||tag (GCM/CCM),
// the transformed data (CTR) or the MAC (CBC-MAC). nonce/aad/payload must
// stay untouched until cb runs; the result buffer is pooled and may be
// recycled by the callback with bufpool.PutBytes (retaining it is equally
// safe).
func (s *Session) EncryptAsync(nonce, aad, payload []byte, cb func([]byte, error)) {
	s.EncryptDeadlineAsync(nonce, aad, payload, 0, cb)
}

// EncryptDeadlineAsync is EncryptAsync with a relative virtual-time
// deadline budget (cycles from dispatch on the owning shard; 0 = none).
// Deadlines only act when the cluster runs per-shard shapers
// (Config.Shape): a packet still queued past its budget is dropped with
// qos.ErrExpired, a late completion ticks the class's DeadlineMisses.
func (s *Session) EncryptDeadlineAsync(nonce, aad, payload []byte, deadline sim.Time, cb func([]byte, error)) {
	c := s.cl
	slot := c.getSlot()
	slot.kind = opEncrypt
	slot.ch = s.chID
	slot.nonce, slot.aad, slot.data = nonce, aad, payload
	slot.class, slot.deadline = s.class, deadline
	slot.cb = cb
	slot.shard = s.shardID
	slot.nbytes = len(payload)
	c.enqueue(slot, s.hp)
}

// DecryptAsync queues one packet for verification and recovery; cb
// receives the plaintext or ErrAuth.
func (s *Session) DecryptAsync(nonce, aad, ct, tag []byte, cb func([]byte, error)) {
	c := s.cl
	slot := c.getSlot()
	slot.kind = opDecrypt
	slot.ch = s.chID
	slot.nonce, slot.aad, slot.data, slot.tag = nonce, aad, ct, tag
	slot.class = s.class
	slot.cb = cb
	slot.shard = s.shardID
	slot.nbytes = len(ct)
	c.enqueue(slot, s.hp)
}

// EncryptWireAsync is EncryptDeadlineAsync for service-boundary callers:
// cb additionally receives the shard-side service latency — virtual
// cycles from the start of the batch that carried the packet to the
// packet's completion (or verdict). The server front end adds this to the
// client-side batching wait to report end-to-end wire latency.
func (s *Session) EncryptWireAsync(nonce, aad, payload []byte, deadline sim.Time, cb func([]byte, sim.Time, error)) {
	c := s.cl
	slot := c.getSlot()
	slot.kind = opEncrypt
	slot.ch = s.chID
	slot.nonce, slot.aad, slot.data = nonce, aad, payload
	slot.class, slot.deadline = s.class, deadline
	slot.cbt = cb
	slot.shard = s.shardID
	slot.nbytes = len(payload)
	c.enqueue(slot, s.hp)
}

// DecryptWireAsync is DecryptAsync with the same shard-side service
// latency reporting as EncryptWireAsync.
func (s *Session) DecryptWireAsync(nonce, aad, ct, tag []byte, cb func([]byte, sim.Time, error)) {
	c := s.cl
	slot := c.getSlot()
	slot.kind = opDecrypt
	slot.ch = s.chID
	slot.nonce, slot.aad, slot.data, slot.tag = nonce, aad, ct, tag
	slot.class = s.class
	slot.cbt = cb
	slot.shard = s.shardID
	slot.nbytes = len(ct)
	c.enqueue(slot, s.hp)
}

// SumAsync queues a Whirlpool digest on a hash session.
func (s *Session) SumAsync(msg []byte, cb func([]byte, error)) {
	c := s.cl
	slot := c.getSlot()
	slot.kind = opHash
	slot.ch = s.chID
	slot.data = msg
	slot.cb = cb
	slot.shard = s.shardID
	slot.nbytes = len(msg)
	c.enqueue(slot, s.hp)
}

// Encrypt is the synchronous form of EncryptAsync: it flushes the batch
// containing the packet and returns its result.
func (s *Session) Encrypt(nonce, aad, payload []byte) ([]byte, error) {
	var out []byte
	var err error
	s.EncryptAsync(nonce, aad, payload, func(o []byte, e error) { out, err = o, e })
	s.cl.Flush()
	return out, err
}

// Decrypt is the synchronous form of DecryptAsync.
func (s *Session) Decrypt(nonce, aad, ct, tag []byte) ([]byte, error) {
	var out []byte
	var err error
	s.DecryptAsync(nonce, aad, ct, tag, func(o []byte, e error) { out, err = o, e })
	s.cl.Flush()
	return out, err
}

// Sum is the synchronous form of SumAsync.
func (s *Session) Sum(msg []byte) ([]byte, error) {
	var out []byte
	var err error
	s.SumAsync(msg, func(o []byte, e error) { out, err = o, e })
	s.cl.Flush()
	return out, err
}

// closeOn enqueues a channel close as a control op, and with it the erasure
// of the session key openOn installed for that channel. Round keys still in
// a Key Cache are left to LRU: the ID is never handed out again, so they
// are unreachable, and evicting them here would change later victim choices.
func (c *Cluster) closeOn(shardID, ch, keyID int) *pendingOp {
	return c.control(shardID, func(sh *shard, op *pendingOp, done func()) {
		sh.cc.CloseChannel(ch, func(err error) {
			if keyID != 0 {
				sh.mc.RemoveKey(keyID)
			}
			op.err = err
			done()
		})
	})
}

// Closed reports whether the session is gone — explicitly closed, or lost
// by a migration (see MoveReport).
func (s *Session) Closed() bool { return s.closed }

// Close drains outstanding work, closes the device channel and retires
// the session.
func (s *Session) Close() error {
	if s.closed {
		return fmt.Errorf("cluster: session %d already closed", s.id)
	}
	s.closed = true
	c := s.cl
	c.Flush()
	var err error
	if !c.quarantined[s.shardID] {
		// On a quarantined shard the channel died with the shard; only
		// the front-end bookkeeping remains to retire.
		slot := c.closeOn(s.shardID, s.chID, s.keyID)
		c.Flush()
		err = slot.err
		c.putSlot(slot)
	}
	delete(c.sessions, s.id)
	c.place(s, s.shardID, -1)
	return err
}

// Reconfigure rewrites one core's reconfigurable region on one shard
// (streaming the partial bitstream from src, as in the paper's §VII.B)
// and then rebalances: sessions whose preferred shard changed — hash
// sessions gaining a Whirlpool home, AES sessions fleeing a shard that
// just lost a core — are re-homed transparently. It returns the swap's
// virtual duration and the rebalance's report.
func (c *Cluster) Reconfigure(shardID, coreID int, target reconfig.Engine, src reconfig.Source) (sim.Time, MoveReport, error) {
	op, err := c.BeginReconfigure(shardID, coreID, target, src)
	if err != nil {
		return 0, MoveReport{}, err
	}
	took, err := op.Wait()
	if err != nil {
		return 0, MoveReport{}, err
	}
	return took, c.Rebalance(), nil
}

// LastMoves returns the session IDs the most recent migration (Rebalance,
// FailOver, RebalanceInto) moved, in re-homing order (voice sessions
// first). The slice is reused by the next migration.
func (c *Cluster) LastMoves() []int { return c.lastMoves }

// Shaped reports whether the cluster runs per-shard QoS shapers.
func (c *Cluster) Shaped() bool { return c.cfg.Shape }

// ShardClassStats returns one shard's per-class shaper counters, highest
// priority first (nil without Config.Shape). It flushes first: the shard
// must be idle for the front end to read its shaper.
func (c *Cluster) ShardClassStats(shard int) []qos.ClassStats {
	if !c.cfg.Shape || shard < 0 || shard >= len(c.shards) {
		return nil
	}
	c.Flush()
	return c.shards[shard].shaper.AllStats()
}

// ClassStats aggregates per-class shaper counters across every shard,
// highest priority first (nil without Config.Shape). Counters are summed;
// the virtual-time interval fields are left zero because shard timelines
// are independent — use ClassLatencyPercentile for cross-shard latency.
func (c *Cluster) ClassStats() []qos.ClassStats {
	if !c.cfg.Shape {
		return nil
	}
	c.Flush()
	out := make([]qos.ClassStats, 0, qos.NumClasses)
	for _, class := range qos.Classes() {
		agg := qos.ClassStats{Class: class}
		for _, sh := range c.shards {
			agg.Accumulate(sh.shaper.Stats(class))
		}
		out = append(out, agg)
	}
	return out
}

// ClassLatencyPercentile merges every shard's enqueue-to-completion
// latency samples for a class and returns the p-th nearest-rank
// percentile in cycles (0 without Config.Shape or samples). Samples are
// durations, so they compare across independent shard timelines.
func (c *Cluster) ClassLatencyPercentile(class qos.Class, p float64) sim.Time {
	if !c.cfg.Shape {
		return 0
	}
	c.Flush()
	var samples []sim.Time
	for _, sh := range c.shards {
		samples = sh.shaper.AppendLatencySamples(class, samples)
	}
	return qos.PercentileOf(samples, p)
}

// checkReconfigLeavesHomes refuses a swap that would strand an open
// session with no eligible shard anywhere (e.g. converting the cluster's
// last Whirlpool core back to AES while hash sessions are open): a
// stranded session's next packet could never complete. Safe to read the
// shard's engine map here — the caller flushed, so the shard goroutine is
// idle.
func (c *Cluster) checkReconfigLeavesHomes(shardID, coreID int, target reconfig.Engine) error {
	sh := c.shards[shardID]
	if coreID < 0 || coreID >= len(sh.dev.Engines) {
		return nil // let the reconfiguration controller report the bad core ID
	}
	after := make([]int, c.cfg.Shards)
	copy(after, c.hashCores)
	wasHash := sh.dev.Engines[coreID] == scheduler.EngineHash
	if target == reconfig.EngineWhirlpool && !wasHash {
		after[shardID]++
	} else if target == reconfig.EngineAES && wasHash {
		after[shardID]--
	}
	hashHomes, aesHomes := 0, 0
	for _, n := range after {
		if n > 0 {
			hashHomes++
		}
		if c.cfg.CoresPerShard-n > 0 {
			aesHomes++
		}
	}
	// Find the lowest-ID stranded session (stable error message).
	stranded, strandedHash := -1, false
	for _, ses := range c.sessions {
		isHash := ses.suite.Family == cryptocore.FamilyHash
		if (isHash && hashHomes == 0) || (!isHash && aesHomes == 0) {
			if stranded < 0 || ses.id < stranded {
				stranded, strandedHash = ses.id, isHash
			}
		}
	}
	if stranded >= 0 {
		engine := "AES"
		if strandedHash {
			engine = "Whirlpool"
		}
		return fmt.Errorf("cluster: reconfiguring shard %d core %d to %v would strand open session %d (no %s core would remain)",
			shardID, coreID, target, stranded, engine)
	}
	return nil
}
