package sim

import (
	"fmt"
	"sort"
)

// WordFIFO models a hardware FIFO of 32-bit words, as used between the
// MCCP crossbar and each Cryptographic Core (512 x 32 bits in the paper,
// i.e. one 2048-byte packet). Reads and writes are callback-based: a blocked
// operation parks until the FIFO state changes.
//
// Besides the word-at-a-time reference operations, the FIFO supports burst
// transfers that move a whole crossbar segment in one event while keeping
// cycle-exact semantics: BulkPush gives word i of a burst the ready time
// start+i*stride (the cycle the word would have arrived at one word per
// cycle), and BulkPop gives slot i the cooling time start+i*stride (the
// cycle it would have been freed). Both are kept as runs (see cycleRuns),
// so a burst costs one descriptor, not one time per word. Every observer —
// CanPush/CanPop, TryPush/TryPop, the When* wait operations — accounts for
// ready and cooling times against the current clock, so the FIFO's
// observable state at every virtual instant is identical to the word-paced
// reference transfer. The differential determinism tests run full
// workloads both ways to enforce this.
type WordFIFO struct {
	eng  *Engine
	buf  []uint32
	head int
	// ready holds, in queue order, the cycle at which each stored word
	// becomes visible to poppers, so ready.n is the number of words stored.
	// Word-at-a-time pushes use the push cycle; bulk pushes spread the
	// burst over the reference schedule. Times are nondecreasing in queue
	// order (single-producer FIFOs; enforced).
	ready cycleRuns
	// cooling holds the future slot-release times of bulk pops and of
	// block pops ahead of the clock. A slot still cooling counts as
	// occupied; elapsed times are dropped lazily against the clock.
	cooling  cycleRuns
	notEmpty *Waiters
	notFull  *Waiters
	// Pushed and Popped count total words moved through the FIFO; they feed
	// utilization metrics.
	Pushed uint64
	Popped uint64
}

// cycleRuns is a queue of nondecreasing cycles kept as arithmetic runs: a
// crossbar segment lands or drains one word per cycle and a block moves at
// one cycle, so each is one run however many words it has. Runs before head
// are spent; the slice is rewound when the queue drains and compacted when
// an append would otherwise grow it, so a FIFO in steady state does not
// allocate.
type cycleRuns struct {
	r    []cycleRun
	head int
	n    int  // cycles held
	last Time // the latest cycle held, when n > 0
}

// cycleRun is the cycles first, first+stride, ..., count of them.
type cycleRun struct {
	first, stride Time
	count         int
}

func (r *cycleRun) last() Time { return r.first + Time(r.count-1)*r.stride }

// add appends the count cycles first+i*stride, extending the last run when
// they continue it (a run of one continues at any stride). first must not
// be earlier than q.last.
func (q *cycleRuns) add(first, stride Time, count int) {
	if count == 0 {
		return
	}
	last := first + Time(count-1)*stride
	if q.n > 0 {
		l := &q.r[len(q.r)-1]
		if first == q.last+l.stride && (count == 1 || stride == l.stride) {
			l.count += count
			q.n, q.last = q.n+count, last
			return
		}
		if gap := first - l.first; l.count == 1 && (count == 1 || stride == gap) {
			l.stride = gap
			l.count += count
			q.n, q.last = q.n+count, last
			return
		}
	}
	if len(q.r) == cap(q.r) && q.head > 0 {
		q.r = q.r[:copy(q.r, q.r[q.head:])]
		q.head = 0
	}
	q.r = append(q.r, cycleRun{first, stride, count})
	q.n, q.last = q.n+count, last
}

// at returns cycle i in queue order; i must be below q.n.
func (q *cycleRuns) at(i int) Time {
	for j := q.head; ; j++ {
		if r := &q.r[j]; i < r.count {
			return r.first + Time(i)*r.stride
		}
		i -= q.r[j].count
	}
}

// drop removes the first k cycles; k must not exceed q.n.
func (q *cycleRuns) drop(k int) {
	q.n -= k
	for k > 0 {
		r := &q.r[q.head]
		if k < r.count {
			r.first += Time(k) * r.stride
			r.count -= k
			return
		}
		k -= r.count
		q.head++
	}
	if q.n == 0 {
		q.reset()
	}
}

// dropThrough removes the cycles at or before t.
func (q *cycleRuns) dropThrough(t Time) {
	if q.n == 0 || q.r[q.head].first > t {
		return
	}
	k := 0
	for j := q.head; j < len(q.r); j++ {
		r := &q.r[j]
		if r.first > t {
			break
		}
		if r.last() > t {
			// first <= t < last, so the stride is positive.
			k += int((t-r.first)/r.stride) + 1
			break
		}
		k += r.count
	}
	q.drop(k)
}

// within reports whether cycle i is at most start+i*stride for each of the
// first k cycles; k must not exceed q.n. Along one run both sides rise
// linearly, so its two ends decide it.
func (q *cycleRuns) within(k int, start, stride Time) bool {
	for j := q.head; k > 0; j++ {
		r := &q.r[j]
		c := min(r.count, k)
		if r.first > start || r.first+Time(c-1)*r.stride > start+Time(c-1)*stride {
			return false
		}
		start += Time(c) * stride
		k -= c
	}
	return true
}

// leading counts the leading i < k for which cycle first+i*every is held
// and at most start+i*stride. Along one run both sides of the comparison
// rise linearly in i, so the i that fail there are a prefix or a suffix of
// the run's: its first and last i decide it, and a failing suffix is found
// by bisection.
func (q *cycleRuns) leading(k, first, every int, start, stride Time) int {
	if first >= q.n {
		return 0
	}
	k = min(k, (q.n-first-1)/every+1)
	i, base := 0, 0 // base: the queue index of run j's first cycle
	for j := q.head; i < k; j++ {
		r := &q.r[j]
		end := base + r.count
		if x := first + i*every; x < end {
			fails := func(i int) bool {
				return r.first+Time(first+i*every-base)*r.stride > start+Time(i)*stride
			}
			hi := min(k, (end-1-first)/every+1) // the i whose cycle is in this run
			switch {
			case fails(i):
				return i
			case fails(hi - 1):
				return i + sort.Search(hi-i, func(d int) bool { return fails(i + d) })
			}
			i = hi
		}
		base = end
	}
	return k
}

func (q *cycleRuns) reset() { q.r, q.head, q.n = q.r[:0], 0, 0 }

// NewWordFIFO returns a FIFO with the given capacity in 32-bit words.
func NewWordFIFO(eng *Engine, capacity int) *WordFIFO {
	if capacity <= 0 {
		panic("sim: FIFO capacity must be positive")
	}
	return &WordFIFO{
		eng:      eng,
		buf:      make([]uint32, capacity),
		notEmpty: NewWaiters(eng),
		notFull:  NewWaiters(eng),
	}
}

// Cap returns the FIFO capacity in words.
func (f *WordFIFO) Cap() int { return len(f.buf) }

// Len returns the number of words currently stored (including words of an
// in-flight burst that are not yet poppable).
func (f *WordFIFO) Len() int { return f.ready.n }

// coolingSlots drops slot-release times that have elapsed and returns how
// many are still ahead of the clock.
func (f *WordFIFO) coolingSlots() int {
	if f.cooling.n > 0 {
		f.cooling.dropThrough(f.eng.Now())
	}
	return f.cooling.n
}

// occupied counts slots unavailable to pushers: stored words plus slots
// still cooling after a bulk pop or a block pop ahead of the clock.
func (f *WordFIFO) occupied() int { return f.ready.n + f.coolingSlots() }

// CanPush reports whether at least k words of space are free.
func (f *WordFIFO) CanPush(k int) bool { return f.Space() >= k }

// Space returns the number of words that can be pushed now.
func (f *WordFIFO) Space() int { return len(f.buf) - f.occupied() }

// wrap folds a ring index from [0, 2*Cap) back into [0, Cap). Every index
// the FIFO forms is head plus at most Cap, so one conditional subtraction
// replaces the modulo (an integer division per word on a 544-word ring).
func (f *WordFIFO) wrap(i int) int {
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	return i
}

// CanPop reports whether at least k words are available (present and past
// their ready time).
func (f *WordFIFO) CanPop(k int) bool {
	if k <= 0 {
		return true
	}
	return f.ready.n >= k && f.ready.at(k-1) <= f.eng.Now()
}

// CanPopSchedule reports whether k words could be drained on the reference
// word-per-cycle schedule: word i present now and ready by start+i*stride.
// The crossbar's burst read path uses it as its fast-path guard.
func (f *WordFIFO) CanPopSchedule(k int, start, stride Time) bool {
	return f.ready.n >= k && f.ready.within(k, start, stride)
}

// checkReady panics unless a word ready at t keeps ready times
// nondecreasing in queue order.
func (f *WordFIFO) checkReady(t Time) {
	if f.ready.n > 0 && f.ready.last > t {
		panic(fmt.Sprintf("sim: FIFO push ready at %d behind in-flight burst word at %d",
			t, f.ready.last))
	}
}

// TryPush appends w if space is available and reports success.
func (f *WordFIFO) TryPush(w uint32) bool {
	if f.occupied() == len(f.buf) {
		return false
	}
	now := f.eng.Now()
	f.checkReady(now)
	f.buf[f.wrap(f.head+f.ready.n)] = w
	f.ready.add(now, 0, 1)
	f.Pushed++
	f.notEmpty.Release()
	return true
}

// TryPushBlock appends the four words of one 128-bit block, most
// significant first, if there is space for all four (the Cryptographic
// Unit's STORE). It is four TryPush calls made in one event: those would
// wake the parked poppers on the first word and find nobody left to wake on
// the other three, and nothing runs in between, so waking them once after
// the fourth word schedules the same callbacks at the same cycle in the
// same order.
func (f *WordFIFO) TryPushBlock(w [4]uint32) bool {
	if !f.CanPush(4) {
		return false
	}
	f.PushBlockAt(uint64(w[0])<<32|uint64(w[1]), uint64(w[2])<<32|uint64(w[3]), f.eng.Now())
	return true
}

// PushBlockAt appends one 128-bit block that becomes poppable at cycle
// ready, which may lie ahead of the clock (a STORE's done edge, applied by a
// Cryptographic Unit running its loop ahead): BulkPush of its four words
// with stride 0. The block is given as two big-endian 64-bit halves, the
// form the unit's bank registers keep: hi holds words 0 and 1, word 0 in
// its upper half. The caller must have checked CanPush(4).
func (f *WordFIFO) PushBlockAt(hi, lo uint64, ready Time) {
	if f.occupied()+4 > len(f.buf) {
		panic("sim: PushBlockAt without space (check CanPush first)")
	}
	f.checkReady(ready)
	if i := f.wrap(f.head + f.ready.n); i+4 <= len(f.buf) {
		b := f.buf[i : i+4 : i+4]
		b[0], b[1], b[2], b[3] = uint32(hi>>32), uint32(hi), uint32(lo>>32), uint32(lo)
	} else {
		for k, v := range [4]uint32{uint32(hi >> 32), uint32(hi), uint32(lo >> 32), uint32(lo)} {
			f.buf[f.wrap(i+k)] = v
		}
	}
	f.ready.add(ready, 0, 4)
	f.Pushed += 4
	f.notEmpty.Release()
}

// BulkPush appends a whole burst in one call: word i becomes poppable at
// start+i*stride, exactly when a word-per-cycle reference transfer would
// have delivered it. The caller must have checked CanPush(len(words)).
func (f *WordFIFO) BulkPush(words []uint32, start, stride Time) {
	if f.occupied()+len(words) > len(f.buf) {
		panic("sim: BulkPush without space (check CanPush first)")
	}
	if len(words) > 0 {
		f.checkReady(start)
		i := f.wrap(f.head + f.ready.n)
		for _, w := range words {
			f.buf[i] = w
			if i++; i == len(f.buf) {
				i = 0
			}
		}
		f.ready.add(start, stride, len(words))
		f.Pushed += uint64(len(words))
	}
	f.notEmpty.Release()
}

// TryPop removes and returns the oldest word.
func (f *WordFIFO) TryPop() (uint32, bool) {
	if f.ready.n == 0 || f.ready.r[f.ready.head].first > f.eng.Now() {
		return 0, false
	}
	w := f.buf[f.head]
	f.head = f.wrap(f.head + 1)
	f.ready.drop(1)
	f.Popped++
	f.notFull.Release()
	return w, true
}

// TryPopBlock removes the oldest four words as one 128-bit block, most
// significant first, if all four are present and ready (the Cryptographic
// Unit's LOAD); otherwise it removes nothing. Like TryPushBlock it is four
// TryPop calls made in one event, with the one wake-up they amount to.
func (f *WordFIFO) TryPopBlock() (w [4]uint32, ok bool) {
	hi, lo, ok := f.PopBlockAt(f.eng.Now())
	return [4]uint32{uint32(hi >> 32), uint32(hi), uint32(lo >> 32), uint32(lo)}, ok
}

// PopBlockAt is TryPopBlock for a LOAD that starts at cycle at, which may lie
// ahead of the clock (a Cryptographic Unit running its loop ahead): the four
// words must be stored now and ready by at, and their slots stay occupied
// until at, through the cooling runs BulkPop uses, so pushers see the space
// free up at the cycle the LOAD takes it. It returns the block as two
// halves, as PushBlockAt takes it.
func (f *WordFIFO) PopBlockAt(at Time) (hi, lo uint64, ok bool) {
	if f.ready.n < 4 || f.ready.at(3) > at {
		return 0, 0, false
	}
	if at > f.eng.Now() {
		// A LOAD's start cycles only rise, so the runs stay in order.
		f.coolingSlots()
		f.cooling.add(at, 0, 4)
	}
	if h := f.head; h+4 <= len(f.buf) {
		b := f.buf[h : h+4 : h+4]
		hi, lo = uint64(b[0])<<32|uint64(b[1]), uint64(b[2])<<32|uint64(b[3])
	} else {
		w := func(k int) uint64 { return uint64(f.buf[f.wrap(h+k)]) }
		hi, lo = w(0)<<32|w(1), w(2)<<32|w(3)
	}
	f.head = f.wrap(f.head + 4)
	f.ready.drop(4)
	f.Popped += 4
	f.notFull.Release()
	return hi, lo, true
}

// ReadyBlocks counts the leading i < k for which block first+i*every (in
// queue order, four words each) is stored now and ready by cycle
// start+i*stride: how many of a run of LOADs ahead of the clock, one every
// stride cycles taking every every-th block, would find theirs. It checks
// run endpoints, as CanPopSchedule does, not every block.
func (f *WordFIFO) ReadyBlocks(k, first, every int, start, stride Time) int {
	return f.ready.leading(k, 4*first+3, 4*every, start, stride)
}

// BulkPop removes the oldest k words in one call, appending them to dst.
// Slot i is accounted occupied until start+i*stride — the cycle a
// word-per-cycle reference drain would have freed it — via the cooling
// runs. The caller must have checked CanPopSchedule(k, start, stride).
func (f *WordFIFO) BulkPop(dst []uint32, k int, start, stride Time) []uint32 {
	if !f.CanPopSchedule(k, start, stride) {
		panic("sim: BulkPop off schedule (check CanPopSchedule first)")
	}
	// Slots freed at or before now never cool. Grants are serialized, so
	// successive bursts add rising times and the runs stay in order.
	now := f.eng.Now()
	f.coolingSlots()
	past := 0
	if start <= now {
		past = k
		if stride > 0 {
			past = min(k, int((now-start)/stride)+1)
		}
	}
	f.cooling.add(start+Time(past)*stride, stride, k-past)
	if end := f.head + k; end <= len(f.buf) {
		dst = append(dst, f.buf[f.head:end]...)
	} else {
		dst = append(append(dst, f.buf[f.head:]...), f.buf[:end-len(f.buf)]...)
	}
	f.head = f.wrap(f.head + k)
	f.ready.drop(k)
	f.Popped += uint64(k)
	f.notFull.Release()
	return dst
}

// PushWord delivers one word callback-style: then runs once the word has
// been accepted, parking through the FIFO's backpressure if it is full.
// This is the reference word-per-cycle upload handshake (the crossbar's
// word-paced path and the core's upload port both use it).
func (f *WordFIFO) PushWord(w uint32, then func()) {
	if f.TryPush(w) {
		f.eng.After(0, then)
		return
	}
	f.WhenPushable(1, func() { f.PushWord(w, then) })
}

// PopWord removes the oldest word callback-style, parking until one is
// available. The reference download handshake, mirroring PushWord.
func (f *WordFIFO) PopWord(then func(uint32)) {
	if w, ok := f.TryPop(); ok {
		f.eng.After(0, func() { then(w) })
		return
	}
	f.WhenPoppable(1, func() { f.PopWord(then) })
}

// WhenPushable parks fn until at least k words of space may be free.
// fn must re-check CanPush (spurious wakeups are possible). When the
// shortfall is only cooling slots — space that frees by the passage of
// time — fn is scheduled at the exact cycle the space appears instead of
// parking, preserving the reference wakeup time without per-word events.
func (f *WordFIFO) WhenPushable(k int, fn func()) {
	if f.CanPush(k) {
		f.eng.After(0, fn)
		return
	}
	if need := f.ready.n + f.cooling.n + k - len(f.buf); need <= f.cooling.n {
		f.eng.At(f.cooling.at(need-1), fn)
		return
	}
	f.notFull.Park(fn)
}

// WhenPoppable parks fn until at least k words may be available.
// fn must re-check CanPop. Words already present but still in-flight from a
// burst wake fn at their exact ready time.
func (f *WordFIFO) WhenPoppable(k int, fn func()) {
	if f.CanPop(k) {
		f.eng.After(0, fn)
		return
	}
	if f.ready.n >= k {
		f.eng.At(f.ready.at(k-1), fn)
		return
	}
	f.notEmpty.Park(fn)
}

// Reset discards all contents, modeling the output-FIFO re-initialization
// the paper performs when a packet fails authentication (protects the
// master processor from reading unauthenticated plaintext).
func (f *WordFIFO) Reset() {
	f.head = 0
	f.ready.reset()
	f.cooling.reset()
	f.notFull.Release()
}

// Mailbox128 models the 4x32-bit inter-core shift register used to convey
// temporary values (e.g. the CBC-MAC tag in two-core CCM) between
// neighbouring Cryptographic Cores. It is a 1-deep 128-bit rendezvous
// buffer: writers block while full, readers block while empty.
type Mailbox128 struct {
	eng      *Engine
	val      [4]uint32
	full     bool
	notEmpty *Waiters
	notFull  *Waiters
}

// NewMailbox128 returns an empty mailbox.
func NewMailbox128(eng *Engine) *Mailbox128 {
	return &Mailbox128{eng: eng, notEmpty: NewWaiters(eng), notFull: NewWaiters(eng)}
}

// Full reports whether a value is waiting to be consumed.
func (m *Mailbox128) Full() bool { return m.full }

// TryPut stores v if the mailbox is empty and reports success.
func (m *Mailbox128) TryPut(v [4]uint32) bool {
	if m.full {
		return false
	}
	m.val = v
	m.full = true
	m.notEmpty.Release()
	return true
}

// TryTake removes and returns the stored value.
func (m *Mailbox128) TryTake() ([4]uint32, bool) {
	if !m.full {
		return [4]uint32{}, false
	}
	m.full = false
	m.notFull.Release()
	return m.val, true
}

// WhenPuttable parks fn until the mailbox may be empty.
func (m *Mailbox128) WhenPuttable(fn func()) {
	if !m.full {
		m.eng.After(0, fn)
		return
	}
	m.notFull.Park(fn)
}

// WhenTakeable parks fn until the mailbox may be full.
func (m *Mailbox128) WhenTakeable(fn func()) {
	if m.full {
		m.eng.After(0, fn)
		return
	}
	m.notEmpty.Park(fn)
}

// Flag is a level-sensitive condition (e.g. a "done" line). Setting it
// releases all waiters; waiters must re-check the level.
type Flag struct {
	eng     *Engine
	set     bool
	waiters *Waiters
}

// NewFlag returns a cleared flag.
func NewFlag(eng *Engine) *Flag { return &Flag{eng: eng, waiters: NewWaiters(eng)} }

// Set raises the flag and wakes waiters.
func (f *Flag) Set() {
	f.set = true
	f.waiters.Release()
}

// Clear lowers the flag.
func (f *Flag) Clear() { f.set = false }

// IsSet reports the level.
func (f *Flag) IsSet() bool { return f.set }

// WhenSet parks fn until the flag may be raised.
func (f *Flag) WhenSet(fn func()) {
	if f.set {
		f.eng.After(0, fn)
		return
	}
	f.waiters.Park(fn)
}
