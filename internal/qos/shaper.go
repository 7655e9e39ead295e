package qos

import (
	"fmt"
	"sort"

	"mccp/internal/core"
	"mccp/internal/obs"
	"mccp/internal/sim"
)

// ErrShed is returned to a packet dropped by the admission controller:
// its class queue was full, so instead of the paper's bare error flag the
// caller gets an explicit load-shedding verdict (and the per-class Shed
// counter ticks).
var ErrShed = fmt.Errorf("qos: class queue full (load shed)")

// ErrExpired is returned to a packet whose deadline passed while it was
// still queued: the shaper drops it at dispatch time instead of wasting
// device capacity on work nobody can use. Expired drops count under the
// class's Shed total (they are load shedding, decided by age instead of
// queue depth) and separately under Expired.
var ErrExpired = fmt.Errorf("qos: deadline expired before dispatch (dropped)")

// ErrAged is returned to a packet that sat in its class queue longer than
// the shaper's AgeLimit: the CoDel-style in-queue aging drops stale
// packets (typically bulk traffic with no explicit deadline) before they
// reach the device, instead of serving data nobody is waiting for
// anymore. Aged drops count under Shed plus the dedicated Aged counter.
var ErrAged = fmt.Errorf("qos: queue age limit exceeded (dropped stale packet)")

// Target is the device-facing surface the shaper drives — in practice
// radio.CommController, but any packet engine with the same asynchronous
// contract works (cores are a detail below this interface).
type Target interface {
	Encrypt(ch int, nonce, aad, payload []byte, cb func([]byte, error))
	Decrypt(ch int, nonce, aad, ct, tag []byte, cb func([]byte, error))
}

// Config sizes a Shaper.
type Config struct {
	// Capacity bounds the operations handed to the device concurrently.
	// 0 means pass-through: the shaper only tags, counts and measures,
	// and the device's own request queue absorbs bursts. A positive
	// capacity activates the class queues and the drain policy.
	Capacity int
	// QueueDepth bounds each class queue (default 64). A packet arriving
	// at a full queue is shed with ErrShed.
	QueueDepth int
	// Drain selects the drain policy by name (default strict-priority).
	Drain string
	// Weights overrides the weighted drains' service ratio (zero value
	// picks DefaultWeights; ignored by strict priority). Weighted-fair
	// converges to the ratio in packets, drr-bytes in payload bytes.
	Weights Weights
	// AgeLimit enables CoDel-style in-queue aging (0 = off): a packet
	// still queued AgeLimit cycles after arrival is dropped with ErrAged
	// — at dispatch time, and also on admission when its queue is full,
	// so a stale backlog makes room for fresh traffic instead of shedding
	// it.
	AgeLimit sim.Time
}

func (c *Config) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	var zero Weights
	if c.Weights == zero {
		c.Weights = DefaultWeights
	}
}

// ClassStats is one class's counter snapshot.
type ClassStats struct {
	Class Class
	// Submitted counts arrivals; Completed successful round trips; Shed
	// load-shedding drops (admission at a full queue, or expiry at
	// dispatch); Rejected device error-flag returns; Failed every other
	// device error (auth failures included).
	Submitted, Completed, Shed, Rejected, Failed uint64
	// Expired counts the subset of Shed dropped at dispatch time because
	// their deadline had already passed in the queue.
	Expired uint64
	// Aged counts the subset of Shed dropped by in-queue aging: queued
	// longer than the shaper's AgeLimit (distinct from Expired, which is
	// a per-packet deadline verdict).
	Aged uint64
	// Bytes is the payload volume of completed operations.
	Bytes uint64
	// QueuedPeak is the deepest the class queue ever got; QueuedNow its
	// current depth.
	QueuedPeak, QueuedNow int
	// DeadlineMisses counts completions after their deadline tag.
	DeadlineMisses uint64
	// FirstDispatch and LastCompletion bound the class's active interval
	// in virtual time (for per-class throughput over the class's own
	// window).
	FirstDispatch, LastCompletion sim.Time
}

// Accumulate adds another snapshot's counters into s — the one merge
// definition every cross-shaper aggregate uses. Counter fields sum
// (QueuedPeak takes the max); the virtual-time interval fields
// (FirstDispatch, LastCompletion) are left untouched, because they are
// only meaningful on a single timeline.
func (s *ClassStats) Accumulate(o ClassStats) {
	s.Submitted += o.Submitted
	s.Completed += o.Completed
	s.Shed += o.Shed
	s.Rejected += o.Rejected
	s.Failed += o.Failed
	s.Expired += o.Expired
	s.Aged += o.Aged
	s.Bytes += o.Bytes
	s.DeadlineMisses += o.DeadlineMisses
	s.QueuedNow += o.QueuedNow
	if o.QueuedPeak > s.QueuedPeak {
		s.QueuedPeak = o.QueuedPeak
	}
}

// Mbps returns the class's delivered throughput at the modeled clock over
// its own active interval.
func (s ClassStats) Mbps(freqHz float64) float64 {
	if s.LastCompletion <= s.FirstDispatch {
		return 0
	}
	cycles := s.LastCompletion - s.FirstDispatch
	return float64(s.Bytes*8) / float64(cycles) * freqHz / 1e6
}

// item is one queued operation: the packet's arguments parked from
// admission to dispatch, with its completion bound once. Items are pooled
// per shaper (Shaper.free), so admitting a packet allocates nothing.
type item struct {
	s     *Shaper
	class Class

	encrypt               bool
	ch                    int
	nonce, aad, data, tag []byte
	cb                    func([]byte, error)

	bytes    int
	enqueued sim.Time
	deadline sim.Time // 0 = none
	// span is the packet's trace span (obs.NoSpan when tracing is off or
	// the packet was not sampled).
	span obs.SpanRef

	onDone func([]byte, error) // bound to finished
	next   *item               // free-list link
}

// classQueue is one class's FIFO. The live window is q[head:]; the
// consumed prefix is reused rather than re-sliced away, so a queue that
// cycles does not allocate.
type classQueue struct {
	q    []*item
	head int
}

func (cq *classQueue) len() int { return len(cq.q) - cq.head }

func (cq *classQueue) front() *item { return cq.q[cq.head] }

func (cq *classQueue) push(it *item) {
	if cq.head > 0 && len(cq.q) == cap(cq.q) {
		n := copy(cq.q, cq.q[cq.head:])
		clear(cq.q[n:])
		cq.q, cq.head = cq.q[:n], 0
	}
	cq.q = append(cq.q, it)
}

func (cq *classQueue) pop() *item {
	it := cq.q[cq.head]
	cq.q[cq.head] = nil
	if cq.head++; cq.head == len(cq.q) {
		cq.q, cq.head = cq.q[:0], 0
	}
	return it
}

// Shaper is the QoS front end: it admits packets into per-class bounded
// queues, drains them toward the device under the configured policy and
// capacity, and accounts latency per class. Like the rest of the
// simulation it is single-threaded: one caller submits and the engine
// delivers completions.
type Shaper struct {
	eng    *sim.Engine
	target Target
	cfg    Config
	drain  DrainPolicy

	queues   [NumClasses]classQueue
	inFlight int
	free     *item // item pool; grows on demand

	stats      [NumClasses]ClassStats
	dispatched [NumClasses]bool // FirstDispatch recorded (0 is a valid time)
	latency    [NumClasses][]sim.Time

	// Fault-injection state (internal/faults): killed makes every
	// submission fail immediately with that error; pausedUntil freezes the
	// pump (queued packets age and expire in place); deny is the brownout
	// admission mask — a denied class is shed at admission with ErrShed.
	killed      error
	pausedUntil sim.Time
	deny        [NumClasses]bool

	// tr traces packet lifecycle spans (nil = untraced; every obs call is
	// nil-safe, so the packet path pays only branches).
	tr *obs.Tracer
}

// SetTracer attaches a lifecycle tracer: every submission opens a span
// at admission, the pump marks dispatch, the device layer (sharing the
// same tracer) marks assignment/upload/retrieval, and completion or any
// admission verdict ends it. The tracer only reads the engine clock, so
// attaching one never perturbs virtual time.
func (s *Shaper) SetTracer(t *obs.Tracer) { s.tr = t }

// NewShaper builds a shaper over a target. It panics on an unknown drain
// policy name (callers validating user input should check DrainByName
// first, as the CLIs do).
func NewShaper(eng *sim.Engine, target Target, cfg Config) *Shaper {
	cfg.fill()
	drain, err := DrainByName(cfg.Drain)
	if err != nil {
		panic(err)
	}
	switch dr := drain.(type) {
	case *WeightedFair:
		*dr = *NewWeightedFair(cfg.Weights)
	case *DRRBytes:
		*dr = *NewDRRBytes(cfg.Weights)
	}
	s := &Shaper{eng: eng, target: target, cfg: cfg, drain: drain}
	for c := 0; c < NumClasses; c++ {
		s.stats[c].Class = Class(c)
	}
	return s
}

// DrainName returns the active drain policy's name.
func (s *Shaper) DrainName() string { return s.drain.Name() }

// Encrypt submits one packet for protection under a class, without a
// deadline.
func (s *Shaper) Encrypt(c Class, ch int, nonce, aad, payload []byte, cb func([]byte, error)) {
	s.EncryptDeadline(c, ch, nonce, aad, payload, 0, cb)
}

// EncryptDeadline submits one packet with an absolute virtual-time
// deadline tag. A packet still queued when its deadline passes is dropped
// at dispatch time with ErrExpired (counted under Shed/Expired); a packet
// dispatched in time but completing late still completes and ticks the
// class's DeadlineMisses counter.
func (s *Shaper) EncryptDeadline(c Class, ch int, nonce, aad, payload []byte, deadline sim.Time, cb func([]byte, error)) {
	if it := s.admit(c, len(payload), deadline, cb); it != nil {
		it.encrypt, it.ch, it.nonce, it.aad, it.data = true, ch, nonce, aad, payload
		s.pump()
	}
}

// Decrypt submits one packet for verification and recovery under a class.
func (s *Shaper) Decrypt(c Class, ch int, nonce, aad, ct, tag []byte, cb func([]byte, error)) {
	if it := s.admit(c, len(ct), 0, cb); it != nil {
		it.ch, it.nonce, it.aad, it.data, it.tag = ch, nonce, aad, ct, tag
		s.pump()
	}
}

func (s *Shaper) getItem() *item {
	it := s.free
	if it == nil {
		it = &item{s: s}
		it.onDone = it.finished
		return it
	}
	s.free = it.next
	it.next = nil
	return it
}

// putItem returns an item to the pool, cleared but for its bound
// completion.
func (s *Shaper) putItem(it *item) {
	*it = item{s: s, onDone: it.onDone, next: s.free}
	s.free = it
}

// admit books an arrival and queues it, returning its item for the
// caller to fill in before pumping; it returns nil for a packet refused at
// admission, whose verdict cb has already received.
func (s *Shaper) admit(c Class, nbytes int, deadline sim.Time, cb func([]byte, error)) *item {
	c = ClassForPriority(int(c))
	st := &s.stats[c]
	st.Submitted++
	span := s.tr.Start(uint8(c), nbytes)
	if s.killed != nil {
		st.Failed++
		s.tr.EndErr(span, s.killed)
		if cb != nil {
			cb(nil, s.killed)
		}
		return nil
	}
	if s.deny[c] {
		st.Shed++
		s.tr.EndErr(span, ErrShed)
		if cb != nil {
			cb(nil, ErrShed)
		}
		return nil
	}
	q := &s.queues[c]
	if q.len() >= s.cfg.QueueDepth {
		// Before shedding the arrival, drop any dead backlog at the front
		// of the queue (over-age or already past its deadline): a full
		// queue of packets nobody wants is the exact situation in-queue
		// aging exists for.
		s.evictStale(c)
	}
	if q.len() >= s.cfg.QueueDepth {
		st.Shed++
		s.tr.EndErr(span, ErrShed)
		if cb != nil {
			cb(nil, ErrShed)
		}
		return nil
	}
	it := s.getItem()
	it.class, it.cb, it.bytes, it.enqueued, it.deadline, it.span = c, cb, nbytes, s.eng.Now(), deadline, span
	q.push(it)
	if d := q.len(); d > st.QueuedPeak {
		st.QueuedPeak = d
	}
	return it
}

// Depth reports a class queue's occupancy (the drain policies' QueueView).
func (s *Shaper) Depth(c Class) int { return s.queues[c].len() }

// HeadBytes reports the payload size at the front of a class queue (the
// byte-based drain policies' QueueView; 0 when empty).
func (s *Shaper) HeadBytes(c Class) int {
	if s.queues[c].len() == 0 {
		return 0
	}
	return s.queues[c].front().bytes
}

// aged reports whether an item has outlived the shaper's age limit.
func (s *Shaper) aged(it *item) bool {
	return s.cfg.AgeLimit != 0 && s.eng.Now()-it.enqueued > s.cfg.AgeLimit
}

// evictStale drops dead items from the front of a class queue — older
// than the AgeLimit (Shed/Aged, ErrAged) or past their deadline
// (Shed/Expired, ErrExpired). CoDel style: the oldest packets go first.
// Eviction runs before the drain policy ever sees the queue, so
// weighted-fair credit and DRR byte-deficit are only ever charged for
// packets that actually dispatch.
func (s *Shaper) evictStale(c Class) {
	q := &s.queues[c]
	for q.len() > 0 {
		it := q.front()
		st := &s.stats[c]
		var verdict error
		switch {
		case s.aged(it):
			st.Shed++
			st.Aged++
			verdict = ErrAged
		case it.deadline != 0 && s.eng.Now() > it.deadline:
			st.Shed++
			st.Expired++
			verdict = ErrExpired
		default:
			return
		}
		q.pop()
		s.drop(it, verdict)
	}
}

// drop ends a queued item that will never dispatch with verdict, after
// its counters are booked.
func (s *Shaper) drop(it *item, verdict error) {
	s.tr.EndErr(it.span, verdict)
	cb := it.cb
	s.putItem(it)
	if cb != nil {
		cb(nil, verdict)
	}
}

// pump dispatches queued items while capacity allows, in drain-policy
// order. Deadline-expired and over-age items are dropped first — at
// dispatch time, before they consume device capacity or drain-policy
// credit — with their verdict counted under Shed/Expired or Shed/Aged.
func (s *Shaper) pump() {
	if s.eng.Now() < s.pausedUntil {
		return // frozen: the resume event scheduled by PauseUntil re-pumps
	}
	for s.cfg.Capacity == 0 || s.inFlight < s.cfg.Capacity {
		for c := Class(0); int(c) < NumClasses; c++ {
			s.evictStale(c)
		}
		c, ok := s.drain.Next(s)
		if !ok {
			return
		}
		it := s.queues[c].pop()
		s.inFlight++
		if !s.dispatched[c] {
			s.dispatched[c] = true
			s.stats[c].FirstDispatch = s.eng.Now()
		}
		// Park the span for the device layer to claim: the target's
		// submission runs synchronously, so the handoff needs no
		// allocation and cannot be interleaved. The target may complete
		// the item before returning, so it is not touched afterwards.
		s.tr.MarkNow(it.span, obs.MarkDispatch)
		s.tr.SetPending(it.span)
		if it.encrypt {
			s.target.Encrypt(it.ch, it.nonce, it.aad, it.data, it.onDone)
		} else {
			s.target.Decrypt(it.ch, it.nonce, it.aad, it.data, it.tag, it.onDone)
		}
	}
}

// finished is a dispatched item's completion (bound once as onDone).
func (it *item) finished(out []byte, err error) {
	s := it.s
	s.inFlight--
	s.complete(it, out, err)
	s.pump()
}

// complete accounts one finished operation, recycles its item and
// delivers its callback.
func (s *Shaper) complete(it *item, out []byte, err error) {
	c := it.class
	st := &s.stats[c]
	now := s.eng.Now()
	switch {
	case err == nil:
		st.Completed++
		st.Bytes += uint64(it.bytes)
		st.LastCompletion = now
		s.latency[c] = append(s.latency[c], now-it.enqueued)
		if it.deadline != 0 && now > it.deadline {
			st.DeadlineMisses++
		}
	case err == core.ErrNoResources || err == core.ErrQueueFull:
		st.Rejected++
	default:
		st.Failed++
	}
	s.tr.EndErr(it.span, err)
	cb := it.cb
	s.putItem(it)
	if cb != nil {
		cb(out, err)
	}
}

// Kill makes the shaper behave like dead hardware: every queued packet
// fails immediately with err (counted under Failed), and so does every
// later submission. In-flight operations already on the device complete
// normally — they had left the queue. Kill is the ShardCrash injector's
// service-side effect; it is permanent for the shaper's lifetime.
func (s *Shaper) Kill(err error) {
	s.killed = err
	for c := range s.queues {
		q := &s.queues[c]
		for q.len() > 0 {
			s.stats[c].Failed++
			s.drop(q.pop(), err)
		}
	}
}

// Killed reports whether Kill has been called (and with what error).
func (s *Shaper) Killed() error { return s.killed }

// PauseUntil freezes the pump until absolute virtual time t: nothing
// dispatches, queued packets age and expire in place under the existing
// AgeLimit/deadline machinery, and at t a scheduled resume event drains
// the survivors. This is the ShardStall injector's service-side effect.
func (s *Shaper) PauseUntil(t sim.Time) {
	if t <= s.eng.Now() || t <= s.pausedUntil {
		return
	}
	s.pausedUntil = t
	s.eng.At(t, func() { s.pump() })
}

// SetDeny installs the brownout admission mask: a denied class is shed
// at admission with ErrShed (the existing load-shedding verdict — nothing
// new crosses the wire). Already-queued packets still drain. The zero
// mask restores full admission.
func (s *Shaper) SetDeny(deny [NumClasses]bool) { s.deny = deny }

// Deny returns the current brownout admission mask.
func (s *Shaper) Deny() [NumClasses]bool { return s.deny }

// Stats snapshots one class's counters.
func (s *Shaper) Stats(c Class) ClassStats {
	st := s.stats[c]
	st.QueuedNow = s.queues[c].len()
	return st
}

// AllStats snapshots every class, highest priority first.
func (s *Shaper) AllStats() []ClassStats {
	out := make([]ClassStats, 0, NumClasses)
	for _, c := range Classes() {
		out = append(out, s.Stats(c))
	}
	return out
}

// LatencyPercentile returns the p-th percentile (0 < p <= 100) of a
// class's enqueue-to-completion latency in cycles, or 0 with no samples.
// Percentiles use the nearest-rank method on the recorded samples.
func (s *Shaper) LatencyPercentile(c Class, p float64) sim.Time {
	return PercentileOf(append([]sim.Time(nil), s.latency[c]...), p)
}

// AppendLatencySamples appends a class's recorded enqueue-to-completion
// latency samples to dst and returns it. The cluster layer uses it to
// merge per-shard samples into cluster-wide per-class percentiles.
func (s *Shaper) AppendLatencySamples(c Class, dst []sim.Time) []sim.Time {
	return append(dst, s.latency[c]...)
}

// LatencySamplesFrom returns a class's latency samples from index from on,
// as a view of the shaper's own record: read it, or copy it, before the
// shaper runs again. A windowed reader that remembers the count it has seen
// fetches only the new tail, instead of copying the whole history each time
// as AppendLatencySamples would.
func (s *Shaper) LatencySamplesFrom(c Class, from int) []sim.Time { return s.latency[c][from:] }

// PercentileOf returns the p-th nearest-rank percentile of samples (which
// it sorts in place), or 0 with no samples.
func PercentileOf(samples []sim.Time, p float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(p/100*float64(len(samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(samples) {
		rank = len(samples) - 1
	}
	return samples[rank]
}
