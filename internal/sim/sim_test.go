package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // same time: insertion order
	end := e.Run()
	if end != 10 {
		t.Errorf("final time = %d, want 10", end)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic when scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(5, func() { ran++ })
	e.At(15, func() { ran++ })
	e.RunUntil(10)
	if ran != 1 {
		t.Errorf("ran = %d events by t=10, want 1", ran)
	}
	if e.Now() != 10 {
		t.Errorf("now = %d, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 {
		t.Errorf("ran = %d events total, want 2", ran)
	}
}

func TestCascadedEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			e.After(2, recurse)
		}
	}
	e.At(0, recurse)
	if end := e.Run(); end != 200 {
		t.Errorf("end = %d, want 200", end)
	}
}

func TestThroughputMbps(t *testing.T) {
	e := NewEngine()
	// 128 bits in 49 cycles at 190 MHz: the paper's theoretical GCM
	// single-core figure, 496 Mbps.
	got := e.ThroughputMbps(128, 49)
	if got < 496 || got > 497 {
		t.Errorf("ThroughputMbps = %f, want ~496.3", got)
	}
	if e.ThroughputMbps(128, 0) != 0 {
		t.Error("zero cycles should yield zero throughput")
	}
}

func TestFIFOBasic(t *testing.T) {
	e := NewEngine()
	f := NewWordFIFO(e, 4)
	for i := uint32(0); i < 4; i++ {
		if !f.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if f.TryPush(99) {
		t.Error("push into full FIFO succeeded")
	}
	for i := uint32(0); i < 4; i++ {
		w, ok := f.TryPop()
		if !ok || w != i {
			t.Fatalf("pop = %d,%v want %d", w, ok, i)
		}
	}
	if _, ok := f.TryPop(); ok {
		t.Error("pop from empty FIFO succeeded")
	}
	if f.Pushed != 4 || f.Popped != 4 {
		t.Errorf("counters = %d/%d", f.Pushed, f.Popped)
	}
}

func TestFIFOBlockingProducerConsumer(t *testing.T) {
	e := NewEngine()
	f := NewWordFIFO(e, 2)
	const total = 50
	produced, consumed := 0, 0
	var got []uint32

	var produce func()
	produce = func() {
		if produced == total {
			return
		}
		if !f.CanPush(1) {
			f.WhenPushable(1, produce)
			return
		}
		f.TryPush(uint32(produced))
		produced++
		e.After(1, produce)
	}
	var consume func()
	consume = func() {
		if consumed == total {
			return
		}
		if !f.CanPop(1) {
			f.WhenPoppable(1, consume)
			return
		}
		w, _ := f.TryPop()
		got = append(got, w)
		consumed++
		e.After(3, consume) // slower consumer forces backpressure
	}
	e.At(0, produce)
	e.At(0, consume)
	e.Run()
	if consumed != total || produced != total {
		t.Fatalf("produced %d consumed %d", produced, consumed)
	}
	for i, w := range got {
		if w != uint32(i) {
			t.Fatalf("out of order at %d: %d", i, w)
		}
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	// FIFO order is preserved for arbitrary interleavings of push/pop.
	f := func(ops []bool, vals []uint32) bool {
		e := NewEngine()
		fifo := NewWordFIFO(e, 8)
		var pushed, popped []uint32
		vi := 0
		for _, isPush := range ops {
			if isPush && vi < len(vals) {
				if fifo.TryPush(vals[vi]) {
					pushed = append(pushed, vals[vi])
				}
				vi++
			} else {
				if w, ok := fifo.TryPop(); ok {
					popped = append(popped, w)
				}
			}
		}
		for fifo.Len() > 0 {
			w, _ := fifo.TryPop()
			popped = append(popped, w)
		}
		if len(pushed) != len(popped) {
			return false
		}
		for i := range pushed {
			if pushed[i] != popped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOReset(t *testing.T) {
	e := NewEngine()
	f := NewWordFIFO(e, 4)
	f.TryPush(1)
	f.TryPush(2)
	woke := false
	f.TryPush(3)
	f.TryPush(4)
	f.WhenPushable(1, func() { woke = true })
	f.Reset()
	e.Run()
	if f.Len() != 0 {
		t.Error("reset did not empty FIFO")
	}
	if !woke {
		t.Error("reset did not wake blocked producer")
	}
}

func TestMailboxRendezvous(t *testing.T) {
	e := NewEngine()
	m := NewMailbox128(e)
	v := [4]uint32{1, 2, 3, 4}
	if !m.TryPut(v) {
		t.Fatal("put into empty mailbox failed")
	}
	if m.TryPut(v) {
		t.Fatal("put into full mailbox succeeded")
	}
	var gotVal [4]uint32
	m.WhenTakeable(func() {
		gotVal, _ = m.TryTake()
	})
	e.Run()
	if gotVal != v {
		t.Errorf("take = %v", gotVal)
	}
	if m.Full() {
		t.Error("mailbox should be empty after take")
	}
}

func TestFlag(t *testing.T) {
	e := NewEngine()
	f := NewFlag(e)
	fired := 0
	f.WhenSet(func() { fired++ })
	e.Run()
	if fired != 0 {
		t.Error("waiter fired before Set")
	}
	e.At(e.Now()+5, func() { f.Set() })
	f.WhenSet(func() { fired++ })
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (both waiters released)", fired)
	}
	// WhenSet on an already-set flag fires immediately.
	f.WhenSet(func() { fired++ })
	e.Run()
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}

func TestWheelHeapSameCycleOrdering(t *testing.T) {
	// Events scheduled far ahead (heap) and ones scheduled later into the
	// near-future wheel at the same timestamp must still run in insertion
	// order. Wheel entries carry no sequence number, so this is the rule
	// "heap first on a tie" at work — also for a cycle whose events were
	// inserted from both sides of the 256-cycle window boundary.
	e := NewEngine()
	var order []int
	mark := func(i int) func() { return func() { order = append(order, i) } }
	e.At(300, mark(1)) // 300-0 >= wheel window: heap
	e.At(300, mark(2)) // heap, after 1
	e.At(44, mark(0))
	e.Step()           // now = 44: 300 is the last cycle still beyond the window
	e.At(300, mark(3)) // 300-44 = 256: heap
	e.At(45, func() {
		e.At(300, mark(4)) // 300-45 = 255: first wheel insert for the cycle
		e.At(299, mark(-1))
	})
	e.Step()
	e.At(300, mark(5))
	e.At(300, func() {
		mark(6)()
		e.After(0, mark(8)) // same cycle, scheduled while it drains
	})
	e.At(300, mark(7))
	e.Run()
	want := []int{0, -1, 1, 2, 3, 4, 5, 6, 7, 8}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFarFutureScheduling(t *testing.T) {
	e := NewEngine()
	var at []Time
	for _, d := range []Time{1, 255, 256, 1000, 100000} {
		e.After(d, func() { at = append(at, e.Now()) })
	}
	e.Run()
	want := []Time{1, 255, 256, 1000, 100000}
	if len(at) != len(want) {
		t.Fatalf("ran %d events, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("event %d ran at %d, want %d", i, at[i], want[i])
		}
	}
}

func TestNextAtAndTryAdvance(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt on empty engine reported an event")
	}
	if !e.TryAdvance(50) {
		t.Error("TryAdvance with empty queue refused")
	}
	if e.Now() != 50 {
		t.Errorf("now = %d, want 50", e.Now())
	}
	e.At(60, func() {})
	if n, ok := e.NextAt(); !ok || n != 60 {
		t.Errorf("NextAt = %d,%v want 60,true", n, ok)
	}
	if e.TryAdvance(60) {
		t.Error("TryAdvance onto a pending event succeeded")
	}
	if !e.TryAdvance(59) {
		t.Error("TryAdvance short of the pending event refused")
	}
	if e.TryAdvance(10) {
		t.Error("TryAdvance into the past succeeded")
	}
}

func TestTryAdvanceHonorsRunUntilHorizon(t *testing.T) {
	// A batching component must not advance past the RunUntil deadline.
	e := NewEngine()
	reached := Time(0)
	var batch func()
	batch = func() {
		if e.Horizon() != 10 {
			t.Errorf("Horizon inside RunUntil(10) = %d", e.Horizon())
		}
		for e.TryAdvance(e.Now() + 2) {
			reached = e.Now()
			if reached > 1000 {
				t.Fatal("runaway batch")
			}
		}
		if reached < 10 {
			e.After(2, batch)
		}
	}
	e.At(0, batch)
	e.RunUntil(10)
	if reached != 10 {
		t.Errorf("batch reached %d, want exactly the deadline 10", reached)
	}
	if e.Horizon() != maxTime {
		t.Errorf("Horizon outside RunUntil = %d, want no horizon", e.Horizon())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(func() {
		count++
		if count < 5 {
			tk.After(3)
		}
	})
	tk.At(1)
	end := e.Run()
	if count != 5 || end != 13 {
		t.Errorf("count=%d end=%d, want 5 at t=13", count, end)
	}
}

func TestFIFOBulkPushReadySchedule(t *testing.T) {
	// A bulk-pushed burst becomes poppable word by word on the reference
	// one-word-per-cycle schedule.
	e := NewEngine()
	f := NewWordFIFO(e, 8)
	e.At(10, func() { f.BulkPush([]uint32{1, 2, 3, 4}, 10, 1) })
	var popped []Time
	e.At(10, func() {
		var drain func()
		drain = func() {
			for {
				if _, ok := f.TryPop(); !ok {
					break
				}
				popped = append(popped, e.Now())
			}
			if len(popped) < 4 {
				f.WhenPoppable(1, drain)
			}
		}
		drain()
	})
	e.Run()
	want := []Time{10, 11, 12, 13}
	if len(popped) != 4 {
		t.Fatalf("popped %d words, want 4", len(popped))
	}
	for i := range want {
		if popped[i] != want[i] {
			t.Errorf("word %d popped at %d, want %d", i, popped[i], want[i])
		}
	}
	if !f.CanPush(8) {
		t.Error("drained FIFO should have full capacity")
	}
}

func TestFIFOBulkPopCooling(t *testing.T) {
	// Bulk-popped slots free on the reference schedule: a pusher blocked on
	// the cooling space wakes exactly when the words would have drained.
	e := NewEngine()
	f := NewWordFIFO(e, 4)
	for i := uint32(0); i < 4; i++ {
		f.TryPush(i)
	}
	e.At(20, func() {
		if !f.CanPopSchedule(4, 20, 1) {
			t.Error("full FIFO should satisfy the drain schedule")
		}
		got := f.BulkPop(nil, 4, 20, 1)
		if len(got) != 4 || got[0] != 0 || got[3] != 3 {
			t.Errorf("BulkPop = %v", got)
		}
	})
	var pushedAt Time
	e.At(20, func() {
		var try func()
		try = func() {
			if f.CanPush(4) {
				pushedAt = e.Now()
				return
			}
			f.WhenPushable(4, try)
		}
		try()
	})
	e.Run()
	// Slot 3 cools until cycle 23: pushing 4 words is first possible then.
	if pushedAt != 23 {
		t.Errorf("pusher woke at %d, want 23", pushedAt)
	}
}

func TestTryAdvanceShortSpanMatchesNextAt(t *testing.T) {
	// TryAdvance answers spans under 64 cycles from the occupancy bitmap
	// and longer ones by scanning for the next event; both must be the
	// predicate "within the horizon and no pending event at or before t".
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		e := NewEngine()
		e.TryAdvance(Time(rng.Intn(2000))) // vary the wheel position
		horizon := e.Now() + Time(50+rng.Intn(600))
		for i := rng.Intn(8); i > 0; i-- {
			d := Time(rng.Intn(80))
			if rng.Intn(3) == 0 {
				d = Time(rng.Intn(700))
			}
			e.After(d, func() {})
		}
		probes := 0
		var probe func()
		probe = func() {
			for k := 0; k < 20; k++ {
				now := e.Now()
				target := now + Time(rng.Intn(130))
				if k%5 == 4 {
					target = horizon - 1 + Time(rng.Intn(3)) // straddle the horizon
					if target < now {
						target = now
					}
				}
				next, ok := e.NextAt()
				want := target <= horizon && !(ok && next <= target)
				got := e.TryAdvance(target)
				if got != want {
					t.Fatalf("trial %d: TryAdvance(%d) at %d = %v, want %v (next %d,%v horizon %d)",
						trial, target, now, got, want, next, ok, horizon)
				}
				if after := e.Now(); got && after != target || !got && after != now {
					t.Fatalf("trial %d: clock %d after TryAdvance(%d)=%v from %d", trial, after, target, got, now)
				}
			}
			if probes++; probes < 6 {
				e.After(Time(rng.Intn(40)), probe)
			}
		}
		e.After(0, probe)
		e.RunUntil(horizon)
	}
}

func TestFIFOCoolingAcrossOverlappingBursts(t *testing.T) {
	// Cooling slots are skipped by a head index, not by re-copying the
	// list. Two overlapping bulk pops with a refill in between: at every
	// cycle the free space is the capacity minus stored words minus slots
	// the reference word-per-cycle drain would still hold, and a blocked
	// pusher wakes at the exact cycle its space appears.
	e := NewEngine()
	const capacity = 16
	f := NewWordFIFO(e, capacity)
	for i := uint32(0); i < capacity; i++ {
		f.TryPush(i)
	}
	stored := capacity
	var release []Time // every slot-release time handed to the cooling list
	bulkPop := func(k int, stride Time) {
		f.BulkPop(nil, k, e.Now(), stride)
		stored -= k
		for i := 0; i < k; i++ {
			release = append(release, e.Now()+Time(i)*stride)
		}
	}
	free := func() int {
		held := 0
		for _, r := range release {
			if r > e.Now() {
				held++
			}
		}
		return capacity - stored - held
	}
	e.At(10, func() { bulkPop(6, 1) }) // frees at 10..15
	e.At(13, func() {
		for i := 0; i < 2; i++ {
			if !f.TryPush(99) {
				t.Error("push into cooled space refused at 13")
			}
			stored++
		}
	})
	e.At(14, func() { bulkPop(4, 2) }) // frees at 14,16,18,20 while 15 still cools
	wake := map[int]Time{}
	e.At(14, func() {
		for _, k := range []int{6, 7, 8} {
			k := k
			f.WhenPushable(k, func() {
				if !f.CanPush(k) {
					t.Errorf("woken for %d words at %d without space", k, e.Now())
				}
				wake[k] = e.Now()
			})
		}
	})
	for c := Time(10); c <= 24; c++ {
		c := c
		e.At(c, func() {
			want := free()
			if !f.CanPush(want) || f.CanPush(want+1) {
				t.Errorf("cycle %d: free space != %d", c, want)
			}
		})
	}
	e.Run()
	// At 14: 8 stored, slots 15/16/18/20 cooling, 4 free; one more at 15, 16, 18, 20.
	for k, at := range map[int]Time{6: 16, 7: 18, 8: 20} {
		if wake[k] != at {
			t.Errorf("pusher of %d words woke at %d, want %d", k, wake[k], at)
		}
	}
	if f.cooling.head != 0 || len(f.cooling.r) != 0 {
		t.Errorf("drained cooling runs not rewound: head %d len %d", f.cooling.head, len(f.cooling.r))
	}
}

// BenchmarkEngineStep is the event-queue rung of the host-cost ladder: 64
// tickers rescheduling themselves, three short delays (timing wheel) for
// every long one (heap) — the device's event mix, and the same load
// bench/'s sim.rung_events_per_s times from outside.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		var tk *Ticker
		i, fired := i, i
		tk = e.NewTicker(func() {
			if fired++; fired%4 == 0 {
				tk.After(Time(1000 + i))
			} else {
				tk.After(Time(1 + i%61))
			}
		})
		tk.After(Time(1 + i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		e.Step()
	}
}

// BenchmarkFIFOBlockMove is the block-move rung: one STORE's TryPushBlock
// and one LOAD's TryPopBlock per iteration on a ring of the device's size,
// so the head wraps every 136 blocks. (bench/'s sim.rung_fifo_words_per_s
// times the word-at-a-time TryPush/TryPop pair.)
func BenchmarkFIFOBlockMove(b *testing.B) {
	f := NewWordFIFO(NewEngine(), 544)
	w := [4]uint32{1, 2, 3, 4}
	b.ReportAllocs()
	b.SetBytes(16)
	for k := 0; k < b.N; k++ {
		if !f.TryPushBlock(w) {
			b.Fatal("ring full")
		}
		var ok bool
		if w, ok = f.TryPopBlock(); !ok {
			b.Fatal("ring empty")
		}
	}
}
