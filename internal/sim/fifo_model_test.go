package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refFIFO is the reference WordFIFO: the ring indexed with %, the cooling
// list filtered from scratch on every query, every block move made of
// single-word moves. TestFIFORingModel holds the real FIFO to it.
type refFIFO struct {
	eng               *Engine
	buf               []uint32
	readyAt           []Time
	head, n           int
	cooling           []Time
	notEmpty, notFull *Waiters
	pushed, popped    uint64
}

func newRefFIFO(eng *Engine, capacity int) *refFIFO {
	return &refFIFO{eng: eng, buf: make([]uint32, capacity), readyAt: make([]Time, capacity),
		notEmpty: NewWaiters(eng), notFull: NewWaiters(eng)}
}

func (f *refFIFO) coolingSlots() []Time {
	var ahead []Time
	for _, t := range f.cooling {
		if t > f.eng.Now() {
			ahead = append(ahead, t)
		}
	}
	f.cooling = ahead
	return ahead
}

func (f *refFIFO) canPush(k int) bool { return f.n+len(f.coolingSlots())+k <= len(f.buf) }

func (f *refFIFO) canPop(k int) bool {
	return k <= 0 || f.n >= k && f.readyAt[(f.head+k-1)%len(f.buf)] <= f.eng.Now()
}

func (f *refFIFO) canPopSchedule(k int, start, stride Time) bool {
	if f.n < k {
		return false
	}
	for i := 0; i < k; i++ {
		if f.readyAt[(f.head+i)%len(f.buf)] > start+Time(i)*stride {
			return false
		}
	}
	return true
}

func (f *refFIFO) space() int { return len(f.buf) - f.n - len(f.coolingSlots()) }

// readyBlocks tries the blocks one by one: block first+i*every stored and
// its last word ready by start+i*stride.
func (f *refFIFO) readyBlocks(k, first, every int, start, stride Time) int {
	for i := 0; i < k; i++ {
		w := 4*(first+i*every) + 3
		if w >= f.n || f.readyAt[(f.head+w)%len(f.buf)] > start+Time(i)*stride {
			return i
		}
	}
	return k
}

func (f *refFIFO) push(w uint32, ready Time) {
	i := (f.head + f.n) % len(f.buf)
	f.buf[i], f.readyAt[i] = w, ready
	f.n++
	f.pushed++
}

func (f *refFIFO) tryPush(w uint32) bool {
	if !f.canPush(1) {
		return false
	}
	f.push(w, f.eng.Now())
	f.notEmpty.Release()
	return true
}

func (f *refFIFO) tryPop() (uint32, bool) {
	if !f.canPop(1) {
		return 0, false
	}
	w := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	f.popped++
	f.notFull.Release()
	return w, true
}

func (f *refFIFO) tryPushBlock(w [4]uint32) bool {
	if !f.canPush(4) {
		return false
	}
	for _, v := range w {
		f.tryPush(v)
	}
	return true
}

func (f *refFIFO) tryPopBlock() (w [4]uint32, ok bool) {
	if !f.canPop(4) {
		return w, false
	}
	for i := range w {
		w[i], _ = f.tryPop()
	}
	return w, true
}

// popBlockAt is a LOAD starting at cycle at, possibly ahead of the clock:
// four single-word pops of words ready by at, each slot cooling until at.
func (f *refFIFO) popBlockAt(at Time) (w [4]uint32, ok bool) {
	if f.n < 4 || f.readyAt[(f.head+3)%len(f.buf)] > at {
		return w, false
	}
	for i := range w {
		w[i] = f.buf[f.head]
		f.head = (f.head + 1) % len(f.buf)
		f.n--
		f.popped++
		if at > f.eng.Now() {
			f.cooling = append(f.cooling, at)
		}
	}
	f.notFull.Release()
	return w, true
}

func (f *refFIFO) bulkPush(words []uint32, start, stride Time) {
	for i, w := range words {
		f.push(w, start+Time(i)*stride)
	}
	f.notEmpty.Release()
}

func (f *refFIFO) bulkPop(k int, start, stride Time) []uint32 {
	var out []uint32
	for i := 0; i < k; i++ {
		out = append(out, f.buf[f.head])
		f.head = (f.head + 1) % len(f.buf)
		f.n--
		if t := start + Time(i)*stride; t > f.eng.Now() {
			f.cooling = append(f.cooling, t)
		}
	}
	f.popped += uint64(k)
	f.notFull.Release()
	return out
}

func (f *refFIFO) whenPushable(k int, fn func()) {
	cooling := f.coolingSlots()
	switch need := f.n + len(cooling) + k - len(f.buf); {
	case need <= 0:
		f.eng.After(0, fn)
	case need <= len(cooling):
		f.eng.At(cooling[need-1], fn)
	default:
		f.notFull.Park(fn)
	}
}

func (f *refFIFO) whenPoppable(k int, fn func()) {
	switch {
	case f.canPop(k):
		f.eng.After(0, fn)
	case f.n >= k:
		f.eng.At(f.readyAt[(f.head+k-1)%len(f.buf)], fn)
	default:
		f.notEmpty.Park(fn)
	}
}

func (f *refFIFO) reset() {
	f.head, f.n, f.cooling = 0, 0, nil
	f.notFull.Release()
}

// TestFIFORingModel drives the FIFO and the reference through the same
// seeded interleavings of every operation and of clock advances, on a ring
// small enough to wrap constantly and on the device's own size, comparing
// every observable after every step — including the cycle at which each
// parked When* callback runs.
func TestFIFORingModel(t *testing.T) {
	for _, capacity := range []int{5, 544} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				runFIFOModel(t, capacity, seed)
			})
		}
	}
}

type wake struct {
	id int
	at Time
}

func runFIFOModel(t *testing.T, capacity int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng, refEng := NewEngine(), NewEngine()
	f, ref := NewWordFIFO(eng, capacity), newRefFIFO(refEng, capacity)
	var wakes, refWakes []wake
	checked := 0 // wakes[:checked] already compared
	sameWakes := func() bool {
		if len(wakes) != len(refWakes) {
			return false
		}
		for ; checked < len(wakes); checked++ {
			if wakes[checked] != refWakes[checked] {
				return false
			}
		}
		return true
	}
	// lastReady and lastFree keep the test inside the FIFO's contract:
	// ready times nondecreasing in queue order (single producer), cooling
	// times ascending (serialized grants, a LOAD's start cycles rising).
	var lastReady, lastFree Time
	var next uint32
	words := func(k int) []uint32 {
		w := make([]uint32, k)
		for i := range w {
			next++
			w[i] = next
		}
		return w
	}
	burst := func() int { return 1 + rng.Intn(min(capacity, 96)) }

	for step := 0; step < 20000; step++ {
		now := eng.Now()
		pushOK := f.Len() == 0 || now >= lastReady
		op := rng.Intn(13)
		switch op {
		case 0:
			if pushOK {
				w := words(1)[0]
				got, want := f.TryPush(w), ref.tryPush(w)
				if got != want {
					t.Fatalf("step %d: TryPush = %v, reference %v", step, got, want)
				}
				if got {
					lastReady = now
				}
			}
		case 1:
			got, ok := f.TryPop()
			want, wok := ref.tryPop()
			if got != want || ok != wok {
				t.Fatalf("step %d: TryPop = %d,%v, reference %d,%v", step, got, ok, want, wok)
			}
		case 2:
			if pushOK {
				var w [4]uint32
				copy(w[:], words(4))
				got, want := f.TryPushBlock(w), ref.tryPushBlock(w)
				if got != want {
					t.Fatalf("step %d: TryPushBlock = %v, reference %v", step, got, want)
				}
				if got {
					lastReady = now
				}
			}
		case 3:
			got, ok := f.TryPopBlock()
			want, wok := ref.tryPopBlock()
			if got != want || ok != wok {
				t.Fatalf("step %d: TryPopBlock = %v,%v, reference %v,%v", step, got, ok, want, wok)
			}
		case 4:
			k, stride := burst(), Time(rng.Intn(3))
			start := max(now, lastReady) + Time(rng.Intn(3))
			if f.Len() == 0 {
				start = now + Time(rng.Intn(3))
			}
			if f.CanPush(k) != ref.canPush(k) {
				t.Fatalf("step %d: CanPush(%d) = %v, reference disagrees", step, k, f.CanPush(k))
			}
			if f.CanPush(k) {
				w := words(k)
				f.BulkPush(w, start, stride)
				ref.bulkPush(w, start, stride)
				lastReady = start + Time(k-1)*stride
			}
		case 5:
			k, stride := burst(), Time(rng.Intn(3))
			start := max(now, lastFree) + Time(rng.Intn(3))
			can := f.CanPopSchedule(k, start, stride)
			if can != ref.canPopSchedule(k, start, stride) {
				t.Fatalf("step %d: CanPopSchedule(%d,%d,%d) = %v, reference disagrees", step, k, start, stride, can)
			}
			if can {
				got, want := f.BulkPop(nil, k, start, stride), ref.bulkPop(k, start, stride)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: BulkPop = %v, reference %v", step, got, want)
				}
				lastFree = start + Time(k-1)*stride
			}
		case 6:
			if rng.Intn(8) == 0 {
				f.Reset()
				ref.reset()
			}
		case 7, 8:
			id, k := step, 1+rng.Intn(min(capacity, 8))
			fn := func() { wakes = append(wakes, wake{id, eng.Now()}) }
			refFn := func() { refWakes = append(refWakes, wake{id, refEng.Now()}) }
			if op == 7 {
				f.WhenPushable(k, fn)
				ref.whenPushable(k, refFn)
			} else {
				f.WhenPoppable(k, fn)
				ref.whenPoppable(k, refFn)
			}
		case 9:
			at := max(now, lastFree) + Time(rng.Intn(4))
			hi, lo, ok := f.PopBlockAt(at)
			got := [4]uint32{uint32(hi >> 32), uint32(hi), uint32(lo >> 32), uint32(lo)}
			want, wok := ref.popBlockAt(at)
			if got != want || ok != wok {
				t.Fatalf("step %d: PopBlockAt(%d) = %v,%v, reference %v,%v", step, at, got, ok, want, wok)
			}
			if ok && at > now {
				lastFree = at
			}
		case 10:
			// A STORE's block, ready at its done edge ahead of the clock.
			if pushOK && f.CanPush(4) {
				var w [4]uint32
				copy(w[:], words(4))
				ready := max(now, lastReady) + Time(rng.Intn(8))
				f.PushBlockAt(uint64(w[0])<<32|uint64(w[1]), uint64(w[2])<<32|uint64(w[3]), ready)
				ref.bulkPush(w[:], ready, 0)
				lastReady = ready
			}
		default:
			d := Time(rng.Intn(6))
			eng.RunUntil(now + d)
			refEng.RunUntil(now + d)
		}

		if f.Len() != ref.n || f.Pushed != ref.pushed || f.Popped != ref.popped {
			t.Fatalf("step %d (op %d): Len/Pushed/Popped = %d/%d/%d, reference %d/%d/%d",
				step, op, f.Len(), f.Pushed, f.Popped, ref.n, ref.pushed, ref.popped)
		}
		if f.Space() != ref.space() {
			t.Fatalf("step %d (op %d): Space = %d, reference %d", step, op, f.Space(), ref.space())
		}
		for _, q := range [][3]int{{1, 0, 1}, {8, 0, 1}, {40, 1, 2}, {capacity, 0, 3}} {
			for stride := Time(0); stride <= 5; stride += 5 {
				start := eng.Now() + Time(rng.Intn(12))
				got := f.ReadyBlocks(q[0], q[1], q[2], start, stride)
				if want := ref.readyBlocks(q[0], q[1], q[2], start, stride); got != want {
					t.Fatalf("step %d (op %d): ReadyBlocks(%d, %d, %d, %d, %d) = %d, reference %d", step, op, q[0], q[1], q[2], start, stride, got, want)
				}
			}
		}
		for _, k := range []int{0, 1, 4, capacity / 2, capacity} {
			if f.CanPush(k) != ref.canPush(k) || f.CanPop(k) != ref.canPop(k) {
				t.Fatalf("step %d (op %d): CanPush(%d)/CanPop(%d) = %v/%v, reference %v/%v",
					step, op, k, k, f.CanPush(k), f.CanPop(k), ref.canPush(k), ref.canPop(k))
			}
			for stride := Time(0); stride <= 1; stride++ {
				if got, want := f.CanPopSchedule(k, eng.Now(), stride), ref.canPopSchedule(k, eng.Now(), stride); got != want {
					t.Fatalf("step %d (op %d): CanPopSchedule(%d, now, %d) = %v, reference %v", step, op, k, stride, got, want)
				}
			}
		}
		if !sameWakes() {
			t.Fatalf("step %d (op %d): callbacks ran at %v, reference %v", step, op, wakes[checked:], refWakes[checked:])
		}
	}
	eng.Run()
	refEng.Run()
	if !sameWakes() {
		t.Fatalf("final drain: callbacks ran at %v, reference %v", wakes[checked:], refWakes[checked:])
	}
	if f.Pushed < uint64(4*capacity) || len(wakes) == 0 {
		t.Fatalf("weak run: %d words through a %d-word ring, %d callbacks", f.Pushed, capacity, len(wakes))
	}
}
