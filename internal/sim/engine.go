// Package sim provides a small deterministic discrete-event simulation
// engine used to model the MCCP hardware at cycle granularity.
//
// Time is measured in clock cycles of the simulated fabric clock (190 MHz in
// the paper's Virtex-4 implementation). Components schedule callbacks at
// absolute cycle times; blocking structures (FIFOs, mailboxes, condition
// flags) park callbacks until a state change occurs and then release them at
// the timestamp of the mutating event, which keeps the simulation fully
// deterministic regardless of scheduling order of same-cycle events (ties are
// broken by insertion order).
//
// The event queue is built for throughput: a near-future timing wheel
// absorbs the short constant delays that dominate the hot path (the
// controller's 2-cycle instruction rate, the crossbar's 1-cycle word rate,
// the Cryptographic Unit's <=64-cycle latencies) in O(1), and a value-typed
// 4-ary min-heap holds the far future without per-event pointer allocation
// or container/heap interface boxing. For any one cycle every heap insert
// precedes every wheel insert (the clock is monotonic and the wheel window
// slides with it), so wheel entries carry no sequence number: a bucket is a
// plain FIFO and "heap first on a tie" is the exact insertion order.
//
// Hot components additionally fold work into the running event: the
// PicoBlaze controller retires register-only instructions against a clock of
// its own and meets the engine only where it touches its bus; the
// Cryptographic Unit latches a waiting instruction and acknowledges it from
// inside its completion event; and a controller that reaches the head of a
// counted firmware loop hands the loop to its unit, which runs as many
// instructions of it as it can ahead of the clock, each at the cycle the
// event path would accept it. What the kernel promises about order is
// therefore stated here, and the folds are held to it:
//
//   - Contractual: every virtual-time figure (cycle counts, what a FIFO
//     holds at a cycle, latencies, digests), and the order of the events of
//     one Cryptographic Core — its controller's bus accesses, its unit's
//     (cycle, instruction) acceptance sequence, its done strobes.
//   - Not contractual: how events of different cores interleave inside one
//     cycle. A fold may run one core's continuation ahead of another core's
//     same-cycle event, so a trace of several cores is canonical only once
//     the per-core sequences are merged by (cycle, core).
//   - It follows that a resource several cores reach (the crossbar's grant
//     queue, the Key Scheduler's queue, a mailbox, the Task Scheduler's done
//     queue) must settle a same-cycle tie as a function of (cycle, core id),
//     as a hardware arbiter does, never by arrival order. The done queue is
//     the one the cores' own events reach directly (core.MCCP.coreFinished
//     takes same-cycle result strobes in fixed core priority); the others
//     are fed by the communication controller's single sequence of events.
//
// TestConcurrentPathMix (repo root) holds the fast paths to this contract
// against Compat, which keeps the event-per-step reference and never works
// ahead. The engine supplies what a folding component needs to stay inside
// it: TryAdvance(t) moves the clock arithmetically inside an event, legal
// exactly when no pending event at or before t would interleave, and
// Horizon() is the cycle past which nothing may be worked ahead — nothing
// is accepted past it, so a RunUntil caller finds no state from beyond its
// deadline. Work done ahead never moves the clock, and whatever of it others
// can see carries its cycle: a FIFO word pushed ahead becomes poppable at its
// ready time, a block popped ahead keeps its slots occupied until the pop's
// cycle (WordFIFO.PopBlockAt), so every observer sees each cycle's state.
// Where work ahead leaves a component waiting with no event of its own at
// the cycle the reference would act (a controller strobe behind a unit
// parked on an empty FIFO), it schedules one there, so a drained engine
// stands where the reference one does.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in simulated time, in clock cycles.
type Time uint64

// maxTime is the "no horizon" sentinel for Run (RunUntil narrows it).
const maxTime = ^Time(0)

// The timing wheel covers [now, now+wheelSize): every short delay the model
// schedules on the hot path (CyclesPerInstr=2, WordCycle=1, the unit's
// <=64-cycle latencies, 64-word crossbar segments) lands here in O(1).
const (
	wheelBits  = 8
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// event is a scheduled callback (far-future heap entry).
type event struct {
	at  Time
	seq uint64 // insertion order among heap entries, breaks ties deterministically
	fn  func()
}

// Engine is a discrete-event simulation kernel. It is not safe for
// concurrent use; the whole simulation is single-threaded and deterministic.
type Engine struct {
	now Time
	seq uint64 // heap insertion counter

	// Near-future timing wheel: bucket (t & wheelMask) holds the events at
	// time t for t-now < wheelSize; the bucket index encodes the timestamp.
	// Buckets are drained front-to-back (entries are appended in insertion
	// order), occ is the non-empty bitmap.
	wheel      [wheelSize][]func()
	wheelHead  [wheelSize]int
	occ        [wheelWords]uint64
	wheelCount int

	// Far-future events: a value-typed 4-ary min-heap ordered by (at, seq).
	heap []event

	// horizon bounds arithmetic clock advances (TryAdvance) to the active
	// RunUntil deadline, so batching components cannot overshoot it.
	horizon Time

	// FreqHz is the modeled clock frequency, used only to convert cycle
	// counts into wall-clock throughput figures. The paper's MCCP runs at
	// 190 MHz on a Virtex-4 SX35-11.
	FreqHz float64

	// Compat disables the fast paths layered on this kernel (PicoBlaze
	// instruction batching, Cryptographic Unit handshake fusion and loop
	// run-ahead, crossbar burst transfers, bulk FIFO moves) and forces the
	// cycle-by-cycle
	// reference behaviour. Virtual-time results are identical either way —
	// the differential determinism tests assert it — so Compat exists as
	// the reference oracle, not as a mode users should need.
	Compat bool
}

// CompatDefault seeds Engine.Compat in NewEngine. The differential
// determinism tests flip it to run whole workloads against the reference
// slow path; production code leaves it false.
var CompatDefault bool

// DefaultFreqHz is the paper's reported operating frequency.
const DefaultFreqHz = 190e6

// NewEngine returns an engine with the clock at cycle 0 and the default
// 190 MHz frequency model.
func NewEngine() *Engine {
	e := &Engine{FreqHz: DefaultFreqHz, horizon: maxTime, Compat: CompatDefault}
	// Pre-size every wheel bucket out of one backing array: the first few
	// events per bucket then never allocate, which removes the per-engine
	// warm-up churn that dominated shard-construction allocations. A bucket
	// that outgrows its carve-out reallocates privately (append semantics),
	// so buckets stay disjoint.
	backing := make([]func(), wheelSize*wheelSeedCap)
	for i := range e.wheel {
		e.wheel[i] = backing[i*wheelSeedCap : i*wheelSeedCap : (i+1)*wheelSeedCap]
	}
	e.heap = make([]event, 0, 64)
	return e
}

// wheelSeedCap is the pre-allocated capacity of each wheel bucket.
const wheelSeedCap = 8

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug, and silently reordering time would make
// results meaningless.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	if t-e.now < wheelSize {
		i := int(t) & wheelMask
		b := e.wheel[i]
		if e.wheelHead[i] == len(b) {
			// Fully drained (or never used): recycle the bucket in place.
			b = b[:0]
			e.wheelHead[i] = 0
			e.occ[i>>6] |= 1 << uint(i&63)
		}
		e.wheel[i] = append(b, fn)
		e.wheelCount++
		return
	}
	e.seq++
	e.heapPush(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// NextAt reports the timestamp of the earliest pending event.
func (e *Engine) NextAt() (Time, bool) {
	wt, wok := e.wheelNext()
	if len(e.heap) == 0 {
		return wt, wok
	}
	ht := e.heap[0].at
	if !wok || ht < wt {
		return ht, true
	}
	return wt, true
}

// TryAdvance moves the clock forward to t inside the current event, and
// reports whether it did. The advance is refused — leaving the clock
// untouched — when a pending event at or before t would interleave, or when
// t lies beyond the active RunUntil horizon. Batching components (the
// PicoBlaze instruction loop) use it to charge time arithmetically while
// provably preserving the reference event order.
func (e *Engine) TryAdvance(t Time) bool {
	if t < e.now || t > e.horizon {
		return false
	}
	if len(e.heap) > 0 && e.heap[0].at <= t {
		return false
	}
	if e.wheelCount > 0 {
		if span := t - e.now; span < 64 {
			// Short span (the controller asks for 2 cycles): test the
			// span+1 occupancy bits from now's slot instead of scanning
			// for the nearest bucket.
			if e.occWindow()<<(63-span) != 0 {
				return false
			}
		} else if wt, _ := e.wheelNext(); wt <= t {
			return false
		}
	}
	e.now = t
	return true
}

// Horizon returns the active RunUntil deadline, the end of time outside
// RunUntil. A component that works ahead of the clock (the PicoBlaze
// controller's local retire cycle, a Cryptographic Unit running a loop
// ahead) must not work past it.
func (e *Engine) Horizon() Time { return e.horizon }

// dueNow reports whether the wheel (in bucket i) and the heap hold an event
// at the current cycle.
func (e *Engine) dueNow() (i int, wheel, heap bool) {
	i = int(e.now) & wheelMask
	return i, e.occ[i>>6]&(1<<uint(i&63)) != 0, len(e.heap) > 0 && e.heap[0].at <= e.now
}

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was run.
func (e *Engine) Step() bool {
	// The common case is another event in the cycle being drained: pop its
	// bucket without searching. A heap entry due now goes first (see popNext).
	if i, wheel, heap := e.dueNow(); wheel && !heap {
		e.popBucket(i)()
		return true
	}
	at, fn, ok := e.popNext()
	if !ok {
		return false
	}
	e.now = at
	fn()
	return true
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. It returns the time of the last event
// executed (or the current time if none ran).
func (e *Engine) RunUntil(deadline Time) Time {
	prev := e.horizon
	e.horizon = deadline
	for {
		t, ok := e.NextAt()
		if !ok || t > deadline {
			break
		}
		e.Step()
	}
	e.horizon = prev
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.heap) }

// CyclesToSeconds converts a cycle count to seconds under the frequency model.
func (e *Engine) CyclesToSeconds(c Time) float64 { return float64(c) / e.FreqHz }

// ThroughputMbps converts (bits, cycles) into Mbps at the modeled frequency.
func (e *Engine) ThroughputMbps(bits int, cycles Time) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bits) / float64(cycles) * e.FreqHz / 1e6
}

// wheelNext scans the occupancy bitmap for the nearest non-empty bucket.
// Buckets are unique per timestamp inside the wheel window, so the first
// set bit at or after now's slot (wrapping once) is the earliest entry.
func (e *Engine) wheelNext() (Time, bool) {
	if e.wheelCount == 0 {
		return 0, false
	}
	p := int(e.now) & wheelMask
	wi, off := p>>6, uint(p&63)
	if w := e.occ[wi] >> off; w != 0 {
		return e.bucketTime(p + bits.TrailingZeros64(w)), true
	}
	for k := 1; k < wheelWords; k++ {
		wj := (wi + k) & (wheelWords - 1)
		if w := e.occ[wj]; w != 0 {
			return e.bucketTime(wj<<6 + bits.TrailingZeros64(w)), true
		}
	}
	if w := e.occ[wi] & (1<<off - 1); w != 0 {
		return e.bucketTime(wi<<6 + bits.TrailingZeros64(w)), true
	}
	panic("sim: wheel count/bitmap out of sync")
}

// occWindow returns the occupancy bits of the 64 cycles starting at now,
// bit k standing for cycle now+k.
func (e *Engine) occWindow() uint64 {
	p := int(e.now) & wheelMask
	wi, off := p>>6, uint(p&63)
	w := e.occ[wi] >> off
	if off != 0 {
		w |= e.occ[(wi+1)&(wheelWords-1)] << (64 - off)
	}
	return w
}

// bucketTime maps a bucket index back to its absolute timestamp.
func (e *Engine) bucketTime(i int) Time {
	return e.now + Time((i-int(e.now))&wheelMask)
}

// popNext removes the earliest pending event. On a tie the heap entry goes
// first: it was inserted when its timestamp was still beyond the wheel
// window, hence before any wheel entry for the same cycle, so this is the
// insertion order regardless of which structure holds the events.
func (e *Engine) popNext() (Time, func(), bool) {
	wt, wok := e.wheelNext()
	hok := len(e.heap) > 0
	if !wok && !hok {
		return 0, nil, false
	}
	if wok && (!hok || wt < e.heap[0].at) {
		return wt, e.popBucket(int(wt) & wheelMask), true
	}
	ev := e.heapPop()
	return ev.at, ev.fn, true
}

// popBucket removes the front entry of bucket i.
func (e *Engine) popBucket(i int) func() {
	b := e.wheel[i]
	h := e.wheelHead[i]
	fn := b[h]
	b[h] = nil
	h++
	if h == len(b) {
		e.wheel[i] = b[:0]
		e.wheelHead[i] = 0
		e.occ[i>>6] &^= 1 << uint(i&63)
	} else {
		e.wheelHead[i] = h
	}
	e.wheelCount--
	return fn
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the callback for GC
	h = h[:n]
	i := 0
	for {
		best := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if eventLess(h[c], h[best]) {
				best = c
			}
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	e.heap = h
	return top
}

// Ticker is a reusable scheduling handle: the callback is bound once at
// construction and the handle is scheduled repeatedly without allocating a
// closure per event. Hot components (the PicoBlaze step loop) use it so the
// event queue's steady state is allocation-free.
type Ticker struct {
	eng *Engine
	fn  func()
}

// NewTicker binds fn to the engine for repeated scheduling.
func (e *Engine) NewTicker(fn func()) *Ticker { return &Ticker{eng: e, fn: fn} }

// At schedules the ticker's callback at absolute time t.
func (t *Ticker) At(at Time) { t.eng.At(at, t.fn) }

// After schedules the ticker's callback d cycles from now.
func (t *Ticker) After(d Time) { t.eng.After(d, t.fn) }

// Waiters is a parking lot for callbacks blocked on a state change. It is
// the building block for FIFOs, mailboxes and signal conditions.
type Waiters struct {
	eng *Engine
	fns []func()
	// spare recycles the previous fns backing array so the park/release
	// cycle is allocation-free in steady state (releasing used to nil the
	// slice, making every subsequent Park re-allocate it).
	spare []func()
}

// NewWaiters returns an empty parking lot bound to eng.
func NewWaiters(eng *Engine) *Waiters { return &Waiters{eng: eng} }

// Park registers fn to be released on the next Release call.
func (w *Waiters) Park(fn func()) { w.fns = append(w.fns, fn) }

// Release schedules every parked callback at the current time and clears the
// lot. Callbacks re-check their condition and may park again, so spurious
// wakeups are allowed (and expected when several waiters race for one slot).
func (w *Waiters) Release() {
	if len(w.fns) == 0 {
		return
	}
	fns := w.fns
	w.fns = w.spare[:0]
	for _, fn := range fns {
		w.eng.After(0, fn)
	}
	for i := range fns {
		fns[i] = nil // release the closures for GC
	}
	w.spare = fns[:0]
}

// Len reports the number of parked callbacks.
func (w *Waiters) Len() int { return len(w.fns) }
