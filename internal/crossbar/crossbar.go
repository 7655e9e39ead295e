// Package crossbar models the MCCP Cross Bar (paper §III.A): the single
// shared 32-bit path between the communication controller and the core
// packet FIFOs. The Task Scheduler grants it to one core at a time for
// I/O access, so transfers to different cores serialize.
//
// The grant order is the Task Scheduler's decision, which makes it the
// third leg of the §VIII QoS extension: waiting jobs are granted in
// priority order (FIFO within a priority), so a voice frame's transfer
// never queues behind a backlog of bulk uploads. A grant is never
// preempted mid-word-burst, but long transfers are issued as a chain of
// SegmentWords-word grants (re-arbitrating between segments), bounding
// the residual a high-priority job can wait behind to one segment. With
// every job at the same priority the grant order is exactly the paper's
// FIFO and segmentation only interleaves concurrent streams without
// changing any stream's own word order or the total occupancy.
//
// Transfers against a core FIFO (WriteFIFO/ReadFIFO) take a burst fast
// path: when the whole segment can move without blocking, it is handed to
// the FIFO in one event with the ready/cooling schedule a word-per-cycle
// transfer would have produced (one run of times), and the grant completes at
// the arithmetically computed cycle. Segment boundaries — the QoS
// preemption points — are preserved exactly, and the word-paced reference
// path remains both as the fallback when a segment would block and as the
// Engine.Compat oracle the differential determinism tests compare against.
//
// FIFO transfers run on pooled transfer-state objects with prebuilt
// callbacks, so the steady-state packet path schedules its grant,
// last-word and release events without allocating; read accumulators come
// from internal/bufpool and are handed to the completion callback (return
// them with bufpool.PutWords when done, or let the GC have them).
package crossbar

import (
	"mccp/internal/bufpool"
	"mccp/internal/sim"
)

// WordCycle is the transfer rate: one 32-bit word per clock cycle.
const WordCycle = 1

// SegmentWords is the arbitration granularity: the longest word burst one
// grant covers before the Cross Bar re-arbitrates (a 256-byte slice of
// the 512x32-bit packet FIFOs).
const SegmentWords = 64

// job is one queued grant: either a pooled FIFO transfer (xf) or a
// generic callback transfer (fn), never both.
type job struct {
	xf   *xfer
	fn   func(done func())
	prio int
}

// Crossbar serializes I/O jobs. A generic job is a callback that performs
// its transfer (with its own pacing and backpressure handling) and must
// call the provided completion function exactly once; FIFO jobs carry
// their state in a pooled xfer instead.
type Crossbar struct {
	eng   *sim.Engine
	busy  bool
	queue []job
	qhead int

	// releaseFn is the prebuilt completion handed to generic jobs; free
	// heads the xfer pool.
	releaseFn func()
	free      *xfer

	// Grants counts completed jobs; BusyCycles accumulates occupancy for
	// the utilization metrics.
	Grants     uint64
	BusyCycles sim.Time
	start      sim.Time
}

// New returns an idle crossbar.
func New(eng *sim.Engine) *Crossbar {
	x := &Crossbar{eng: eng}
	x.releaseFn = x.release
	return x
}

// Busy reports whether a job holds the crossbar.
func (x *Crossbar) Busy() bool { return x.busy }

// QueueLen reports the number of waiting jobs.
func (x *Crossbar) QueueLen() int { return len(x.queue) - x.qhead }

// Submit enqueues a priority-0 job (the paper's FIFO behaviour).
func (x *Crossbar) Submit(fn func(done func())) { x.SubmitPrio(fn, 0) }

// SubmitPrio enqueues a job at a QoS priority. Waiting jobs are granted
// highest priority first, FIFO within a priority; the running transfer is
// never preempted.
func (x *Crossbar) SubmitPrio(fn func(done func()), prio int) {
	x.submitJob(job{fn: fn, prio: prio})
}

func (x *Crossbar) submitJob(j job) {
	if x.busy {
		x.insert(j)
		return
	}
	x.runJob(j)
}

// insert places j behind every queued job of its priority or higher.
func (x *Crossbar) insert(j job) {
	q := x.queue
	at := len(q)
	for i := x.qhead; i < len(q); i++ {
		if j.prio > q[i].prio {
			at = i
			break
		}
	}
	q = append(q, job{})
	copy(q[at+1:], q[at:])
	q[at] = j
	x.queue = q
}

func (x *Crossbar) runJob(j job) {
	x.busy = true
	x.start = x.eng.Now()
	if j.xf != nil {
		x.eng.After(0, j.xf.beginFn)
		return
	}
	fn := j.fn
	x.eng.After(0, func() { fn(x.releaseFn) })
}

// release retires the running grant and starts the next queued one.
func (x *Crossbar) release() {
	x.Grants++
	x.BusyCycles += x.eng.Now() - x.start
	if x.qhead < len(x.queue) {
		j := x.queue[x.qhead]
		x.queue[x.qhead] = job{}
		x.qhead++
		if x.qhead == len(x.queue) {
			x.queue = x.queue[:0]
			x.qhead = 0
		}
		x.runJob(j)
		return
	}
	x.busy = false
}

// xfer is the state of one FIFO transfer (write or read) across its
// segment chain. Instances are pooled per crossbar and carry prebuilt
// callbacks, so a steady-state transfer allocates nothing.
type xfer struct {
	x     *Crossbar
	f     *sim.WordFIFO
	write bool
	prio  int

	// write side: words is the source, off the consumed prefix.
	words []uint32
	off   int
	done  func()

	// read side: n is the target count, acc the pooled accumulator.
	n        int
	acc      []uint32
	doneRead func([]uint32)

	beginFn   func() // runs the next segment under the current grant
	lastHopFn func() // fires at the segment's last word cycle
	segDoneFn func() // releases the grant and chains / completes

	next *xfer // pool link
}

func (x *Crossbar) getXfer() *xfer {
	xf := x.free
	if xf == nil {
		xf = &xfer{x: x}
		xf.beginFn = xf.begin
		xf.segDoneFn = xf.segDone
		xf.lastHopFn = func() { xf.x.eng.After(WordCycle, xf.segDoneFn) }
		return xf
	}
	x.free = xf.next
	xf.next = nil
	return xf
}

func (x *Crossbar) putXfer(xf *xfer) {
	xf.f = nil
	xf.words = nil
	xf.acc = nil
	xf.done = nil
	xf.doneRead = nil
	xf.next = x.free
	x.free = xf
}

// WriteFIFO streams words into a core input FIFO at priority 0.
func (x *Crossbar) WriteFIFO(f *sim.WordFIFO, words []uint32, done func()) {
	x.WriteFIFOPrio(f, words, 0, done)
}

// WriteFIFOPrio streams words into a core input FIFO, one SegmentWords-
// bounded grant per segment at a QoS priority. A segment the FIFO can
// absorb whole moves as a single burst: the words are handed over in one
// event carrying the word-per-cycle ready schedule, and the grant releases
// at the arithmetically computed completion cycle. A segment that would
// block (FIFO backpressure) falls back to the word-paced reference
// transfer, which is also forced by Engine.Compat. words is only read
// until done fires.
func (x *Crossbar) WriteFIFOPrio(f *sim.WordFIFO, words []uint32, prio int, done func()) {
	xf := x.getXfer()
	xf.f, xf.write, xf.prio = f, true, prio
	xf.words, xf.off, xf.done = words, 0, done
	x.submitJob(job{xf: xf, prio: prio})
}

// ReadFIFO drains n words from a core output FIFO at priority 0.
func (x *Crossbar) ReadFIFO(f *sim.WordFIFO, n int, done func([]uint32)) {
	x.ReadFIFOPrio(f, n, 0, done)
}

// ReadFIFOPrio drains n words from a core output FIFO, one SegmentWords-
// bounded grant per segment at a QoS priority. A segment whose words are
// all deliverable on the word-per-cycle schedule is drained as a single
// burst (the freed slots cool down on the reference schedule); otherwise
// the word-paced reference transfer runs, as it always does under
// Engine.Compat. The result slice comes from bufpool; the consumer may
// recycle it with bufpool.PutWords once done with it.
func (x *Crossbar) ReadFIFOPrio(f *sim.WordFIFO, n, prio int, done func([]uint32)) {
	xf := x.getXfer()
	xf.f, xf.write, xf.prio = f, false, prio
	xf.n, xf.acc, xf.doneRead = n, bufpool.Words(n), done
	x.submitJob(job{xf: xf, prio: prio})
}

// begin runs one segment of the transfer under the grant just received.
func (xf *xfer) begin() {
	if xf.write {
		xf.beginWrite()
	} else {
		xf.beginRead()
	}
}

func (xf *xfer) beginWrite() {
	x := xf.x
	seg := xf.words[xf.off:]
	if len(seg) > SegmentWords {
		seg = seg[:SegmentWords]
	}
	if len(seg) == 0 {
		// Empty transfer: completes within its grant event, exactly like
		// the word-paced loop below.
		xf.segDone()
		return
	}
	start := x.eng.Now()
	if !x.eng.Compat && xf.f.CanPush(len(seg)) {
		xf.f.BulkPush(seg, start, WordCycle)
		xf.off += len(seg)
		x.eng.At(start+sim.Time(len(seg)-1)*WordCycle, xf.lastHopFn)
		return
	}
	// Word-paced reference fallback (Compat, or FIFO backpressure).
	end := xf.off + len(seg)
	var step, hop func()
	hop = func() { x.eng.After(WordCycle, step) }
	step = func() {
		if xf.off == end {
			xf.segDone()
			return
		}
		w := xf.words[xf.off]
		xf.off++
		xf.f.PushWord(w, hop)
	}
	step()
}

func (xf *xfer) beginRead() {
	x := xf.x
	seg := xf.n - len(xf.acc)
	if seg > SegmentWords {
		seg = SegmentWords
	}
	if seg == 0 {
		xf.segDone()
		return
	}
	start := x.eng.Now()
	if !x.eng.Compat && xf.f.CanPopSchedule(seg, start, WordCycle) {
		xf.acc = xf.f.BulkPop(xf.acc, seg, start, WordCycle)
		x.eng.At(start+sim.Time(seg-1)*WordCycle, xf.lastHopFn)
		return
	}
	end := len(xf.acc) + seg
	var step func()
	popped := func(w uint32) {
		xf.acc = append(xf.acc, w)
		x.eng.After(WordCycle, step)
	}
	step = func() {
		if len(xf.acc) == end {
			xf.segDone()
			return
		}
		xf.f.PopWord(popped)
	}
	step()
}

// segDone releases the grant (letting a queued job in), then either
// re-submits the next segment — the QoS preemption point — or completes
// the transfer and recycles its state.
func (xf *xfer) segDone() {
	x := xf.x
	x.release()
	if xf.write {
		if xf.off < len(xf.words) {
			x.submitJob(job{xf: xf, prio: xf.prio})
			return
		}
		done := xf.done
		x.putXfer(xf)
		done()
		return
	}
	if len(xf.acc) < xf.n {
		x.submitJob(job{xf: xf, prio: xf.prio})
		return
	}
	done, acc := xf.doneRead, xf.acc
	x.putXfer(xf)
	done(acc)
}

// WriteWords streams words into push (a core input FIFO adapter) at one
// word per cycle, as a single crossbar job. push must deliver the word and
// invoke its continuation, honouring FIFO backpressure.
func (x *Crossbar) WriteWords(words []uint32, push func(w uint32, then func()), done func()) {
	x.WriteWordsPrio(words, push, 0, done)
}

// WriteWordsPrio is WriteWords granted at a QoS priority, one
// SegmentWords-bounded grant per segment. It is the word-paced generic
// path; transfers against a WordFIFO should use WriteFIFOPrio, which adds
// the burst fast path.
func (x *Crossbar) WriteWordsPrio(words []uint32, push func(w uint32, then func()), prio int, done func()) {
	seg := words
	if len(seg) > SegmentWords {
		seg = words[:SegmentWords]
	}
	rest := words[len(seg):]
	x.SubmitPrio(func(release func()) {
		var step func(i int)
		step = func(i int) {
			if i == len(seg) {
				release()
				if len(rest) > 0 {
					x.WriteWordsPrio(rest, push, prio, done)
					return
				}
				done()
				return
			}
			push(seg[i], func() {
				x.eng.After(WordCycle, func() { step(i + 1) })
			})
		}
		step(0)
	}, prio)
}

// ReadWords drains n words from pop (a core output FIFO adapter) at one
// word per cycle, delivering the result to done.
func (x *Crossbar) ReadWords(n int, pop func(then func(uint32)), done func([]uint32)) {
	x.ReadWordsPrio(n, pop, 0, done)
}

// ReadWordsPrio is ReadWords granted at a QoS priority, one
// SegmentWords-bounded grant per segment. It is the word-paced generic
// path; transfers against a WordFIFO should use ReadFIFOPrio, which adds
// the burst fast path.
func (x *Crossbar) ReadWordsPrio(n int, pop func(then func(uint32)), prio int, done func([]uint32)) {
	x.readSegmented(nil, n, pop, prio, done)
}

func (x *Crossbar) readSegmented(acc []uint32, n int, pop func(then func(uint32)), prio int, done func([]uint32)) {
	seg := n - len(acc)
	if seg > SegmentWords {
		seg = SegmentWords
	}
	x.SubmitPrio(func(release func()) {
		got := 0
		var step func()
		step = func() {
			if got == seg {
				release()
				if len(acc) < n {
					x.readSegmented(acc, n, pop, prio, done)
					return
				}
				done(acc)
				return
			}
			pop(func(w uint32) {
				acc = append(acc, w)
				got++
				x.eng.After(WordCycle, step)
			})
		}
		step()
	}, prio)
}
