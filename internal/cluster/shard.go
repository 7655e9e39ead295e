package cluster

import (
	"fmt"
	"sync/atomic"

	"mccp/internal/core"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/radio"
	"mccp/internal/reconfig"
	"mccp/internal/scheduler"
	"mccp/internal/sim"
)

// batchMsg is one dispatch quantum on a shard's submission ring: the ops
// of one batch plus the shard-local batch sequence number the shard
// publishes when the batch's simulation has run to completion.
type batchMsg struct {
	ops []*pendingOp
	seq uint64
}

// shardSnap is a shard's counter snapshot, rebuilt after every batch and
// published through an atomic pointer so the front end can read metrics
// without stopping the pipeline. Values are as of the shard's last
// completed batch — exactly the "between batches" view the barrier-based
// design exposed.
type shardSnap struct {
	completions   uint64
	authFails     uint64
	rejected      uint64
	queued        uint64
	shed          uint64
	keyExpansions uint64
	crossbarBusy  sim.Time
	cycles        sim.Time // virtual time consumed since settle
	// progOffered/progBytes are the payload bytes shard-side arrival
	// programs (runOpenLoopShard) submitted and completed cleanly — traffic
	// the front end's submit/deliver counters never see.
	progOffered uint64
	progBytes   uint64
	// heartbeat counts batches served while healthy: it stops advancing
	// the moment a ShardCrash fault fires, which is how the front end's
	// failure detector tells a dead shard from an idle one. crashed
	// mirrors the shard's crash flag as of the snapshot.
	heartbeat uint64
	crashed   bool
	// classes carries the shard shaper's per-class counters (only filled
	// with Config.Shape), highest priority first.
	classes []qos.ClassStats
}

// shard is one independent MCCP platform: its own discrete-event engine,
// device, radio controllers and reconfiguration controller, driven by a
// dedicated goroutine. Shards never share simulation state, so each
// shard's virtual timeline is exactly as deterministic as a single
// Platform. The front end communicates through three channels — the
// bounded submission ring (sub), the recycled-batch-slice return path
// (freeOps) and the completion notifier — plus the atomic completed
// counter, which is the happens-before edge for reading a batch's result
// slots and the published snapshot.
type shard struct {
	id  int
	eng *sim.Engine
	dev *core.MCCP
	cc  *radio.CommController
	mc  *radio.MainController
	rc  *reconfig.Controller
	// shaper is the shard's QoS front end (nil without Config.Shape):
	// packet operations route through it, so per-class latency and
	// shed/expired/aged verdicts are attributable on this shard's own
	// virtual timeline.
	shaper *qos.Shaper
	// rec is the shard's flight recorder (always present): lifecycle
	// events land in it unconditionally, traced spans when tracing is on.
	// tr is the shard's lifecycle tracer (nil unless Shape and
	// Config.Trace.Enabled), shared by the shaper and the comm
	// controller.
	rec *obs.Recorder
	tr  *obs.Tracer

	// window bounds the packets kept in flight inside one batch, so a
	// batch larger than the device's capacity pipelines instead of
	// queueing unboundedly — and, with the QoS queue disabled, never
	// oversubscribes the cores (Config.fill caps the default at the core
	// count then, since a same-instant overflow would draw the error
	// flag rather than wait).
	window int
	// base is the virtual time after firmware settle; shard cycle counts
	// are measured from here.
	base sim.Time

	// sub is the bounded submission ring; freeOps returns drained batch
	// slices for reuse; notify wakes a barrier waiter after each batch.
	sub     chan batchMsg
	freeOps chan []*pendingOp
	notify  chan struct{}
	done    chan struct{}

	// completed is the sequence number of the last finished batch; snap
	// the counters published alongside it.
	completed atomic.Uint64
	snap      atomic.Pointer[shardSnap]

	// crashed is set on the shard goroutine when an armed ShardCrash
	// fault fires on this shard's engine (atomic so Snapshot callers on
	// other goroutines can read it); heartbeat is the shard-goroutine
	// batch counter that freezes once crashed. fault is the armed (not
	// yet fired) fault, written by the front end and consumed by loop.
	// drained and quarantinedA mirror the front end's routing mask so
	// Snapshot can report it without touching front-end state.
	crashed      atomic.Bool
	heartbeat    uint64
	fault        atomic.Pointer[shardFault]
	drained      atomic.Bool
	quarantinedA atomic.Bool

	// Batch pump state (shard goroutine only). doneFn is the prebuilt
	// per-operation completion shared by every op's finish callback.
	// batchStart is the shard's virtual time at the start of the running
	// batch; each op's finish records its completion offset from it (the
	// shard-side service latency wire callers report).
	ops        []*pendingOp
	next       int
	inFlight   int
	finished   int
	doneFn     func()
	batchStart sim.Time

	// Arrival-program byte counters, published as shardSnap's.
	progOffered uint64
	progBytes   uint64
}

// newShard builds and starts one shard. pol must be a fresh policy
// instance — stateful policies cannot be shared across engines.
func newShard(id int, cfg Config, pol scheduler.Policy) *shard {
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{
		Cores:         cfg.CoresPerShard,
		Policy:        pol,
		QueueRequests: cfg.QueueRequests,
		MaxQueue:      cfg.MaxQueue,
	})
	sh := &shard{
		id:      id,
		eng:     eng,
		dev:     dev,
		cc:      radio.NewCommController(dev),
		mc:      radio.NewMainController(dev, cfg.Seed^uint64(id)*0x9E3779B97F4A7C15^0xD1CE),
		rc:      reconfig.NewController(eng, dev),
		window:  cfg.ShardWindow,
		sub:     make(chan batchMsg, cfg.RingDepth),
		freeOps: make(chan []*pendingOp, cfg.RingDepth+1),
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	sh.rec = obs.NewRecorder(id, cfg.FlightDepth)
	if cfg.Shape {
		sh.shaper = qos.NewShaper(eng, sh.cc, cfg.Shaper)
		if cfg.Trace.Enabled {
			tc := cfg.Trace
			tc.Tag = int32(id)
			tc.Seed = cfg.Trace.Seed ^ uint64(id+1)*0x9E3779B97F4A7C15
			tc.Classify = outcomeFor
			tc.OnEnd = sh.rec.RecordSpan
			sh.tr = obs.NewTracer(eng, tc)
			sh.shaper.SetTracer(sh.tr)
			sh.cc.SetTracer(sh.tr)
		}
	}
	sh.doneFn = sh.opDone
	eng.Run() // settle core firmware into its idle loop
	sh.base = eng.Now()
	sh.publishSnap()
	go sh.loop()
	return sh
}

// shardFault is an armed fault-injection event: in the first batch whose
// starting heartbeat is >= when, an engine event fires offset cycles in.
// stall == 0 is a permanent crash (the shard's service dies: its shaper
// fails everything, its heartbeat freezes); stall > 0 freezes the
// shaper's pump for that many cycles and then recovers.
type shardFault struct {
	when   uint64
	offset sim.Time
	stall  sim.Time
}

// loop services the submission ring until it closes. After each batch it
// publishes the counter snapshot, advances the completed sequence (the
// release edge for everything the batch wrote) and pokes the notifier.
func (sh *shard) loop() {
	defer close(sh.done)
	for b := range sh.sub {
		if f := sh.fault.Load(); f != nil && sh.heartbeat >= f.when {
			sh.fault.Store(nil)
			stall := f.stall
			sh.eng.At(sh.eng.Now()+f.offset, func() {
				if stall > 0 {
					sh.rec.Event(sh.eng.Now(), obs.EvStall, "pump frozen by injected stall")
					sh.shaper.PauseUntil(sh.eng.Now() + stall)
					return
				}
				// Record the crash, let Kill fail the queued packets (their
				// span ends land in the ring when tracing is on), then
				// freeze — the postmortem captures both the event and the
				// casualties.
				sh.rec.Event(sh.eng.Now(), obs.EvCrash, ErrShardDown.Error())
				sh.crashed.Store(true)
				sh.shaper.Kill(ErrShardDown)
				sh.rec.Freeze("crash", sh.eng.Now())
			})
		}
		sh.runBatch(b.ops)
		sh.publishSnap()
		sh.completed.Store(b.seq)
		select {
		case sh.notify <- struct{}{}:
		default:
		}
		for i := range b.ops {
			b.ops[i] = nil
		}
		select {
		case sh.freeOps <- b.ops[:0]:
		default:
		}
	}
}

// runBatch pipelines the batch through the device with a bounded in-flight
// window and drains the engine once. Launch order is the front end's
// enqueue order, so the shard's virtual timeline is a pure function of the
// batch sequence.
func (sh *shard) runBatch(ops []*pendingOp) {
	sh.ops, sh.next, sh.inFlight, sh.finished = ops, 0, 0, 0
	sh.batchStart = sh.eng.Now()
	sh.pump()
	sh.eng.Run()
	if sh.finished != len(ops) {
		panic(fmt.Sprintf("cluster: shard %d finished batch with %d/%d ops complete (simulation deadlock)",
			sh.id, sh.finished, len(ops)))
	}
	sh.ops = nil
}

func (sh *shard) pump() {
	for sh.inFlight < sh.window && sh.next < len(sh.ops) {
		op := sh.ops[sh.next]
		sh.next++
		sh.inFlight++
		sh.exec(op)
	}
}

// opDone retires one operation and refills the window (prebuilt as doneFn
// and referenced by every slot's finish callback).
func (sh *shard) opDone() {
	sh.inFlight--
	sh.finished++
	sh.pump()
}

// exec launches one operation on the shard's device — through the
// shard's shaper when the cluster is shaped, so the operation is classed,
// queued under the drain policy and latency-tracked. Relative deadline
// budgets become absolute shard times here.
func (sh *shard) exec(op *pendingOp) {
	switch op.kind {
	case opEncrypt:
		if sh.shaper != nil {
			deadline := sim.Time(0)
			if op.deadline != 0 {
				deadline = sh.eng.Now() + op.deadline
			}
			sh.shaper.EncryptDeadline(op.class, op.ch, op.nonce, op.aad, op.data, deadline, op.finish)
			return
		}
		sh.cc.Encrypt(op.ch, op.nonce, op.aad, op.data, op.finish)
	case opDecrypt:
		if sh.shaper != nil {
			sh.shaper.Decrypt(op.class, op.ch, op.nonce, op.aad, op.data, op.tag, op.finish)
			return
		}
		sh.cc.Decrypt(op.ch, op.nonce, op.aad, op.data, op.tag, op.finish)
	case opHash:
		// Hashes bypass the shaper, so its Kill does not reach them.
		if sh.crashed.Load() {
			op.finish(nil, ErrShardDown)
			return
		}
		sh.cc.Hash(op.ch, op.data, op.finish)
	default:
		op.run(sh, op, sh.doneFn)
	}
}

func (sh *shard) publishSnap() {
	if !sh.crashed.Load() {
		sh.heartbeat++
	}
	snap := &shardSnap{
		completions:   sh.cc.Completions,
		authFails:     sh.dev.Stats.AuthFails,
		rejected:      sh.dev.Stats.Rejected,
		queued:        sh.dev.Stats.Queued,
		shed:          sh.dev.Stats.Shed,
		keyExpansions: sh.dev.KeySched.Expansions,
		crossbarBusy:  sh.dev.XBar.BusyCycles,
		cycles:        sh.eng.Now() - sh.base,
		progOffered:   sh.progOffered,
		progBytes:     sh.progBytes,
		heartbeat:     sh.heartbeat,
		crashed:       sh.crashed.Load(),
	}
	if sh.shaper != nil {
		snap.classes = sh.shaper.AllStats()
	}
	sh.snap.Store(snap)
}

// hashCores counts cores whose reconfigurable region currently holds the
// Whirlpool engine. Only safe after a barrier (the shard must be idle).
func (sh *shard) hashCores() int {
	n := 0
	for _, e := range sh.dev.Engines {
		if e == scheduler.EngineHash {
			n++
		}
	}
	return n
}
