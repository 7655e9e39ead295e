package keysched

import (
	"testing"

	"mccp/internal/aes"
	"mccp/internal/bits"
	"mccp/internal/sim"
)

func TestExpandCycles(t *testing.T) {
	// 128-bit: 24 + 11*(8+4) = 156; 192: 24 + 13*12 = 180; 256: 24+15*12=204.
	want := map[aes.KeySize]sim.Time{aes.Key128: 156, aes.Key192: 180, aes.Key256: 204}
	for ks, w := range want {
		if got := ExpandCycles(ks); got != w {
			t.Errorf("%v: %d cycles, want %d", ks, got, w)
		}
	}
}

func TestKeyMemoryValidation(t *testing.T) {
	m := NewKeyMemory()
	if err := m.Store(1, make([]byte, 15)); err == nil {
		t.Error("15-byte key accepted")
	}
	if err := m.Store(1, make([]byte, 16)); err != nil {
		t.Error(err)
	}
	if !m.Has(1) || m.Has(2) {
		t.Error("Has() wrong")
	}
	// A live ID cannot be overwritten: the Key Caches would keep answering
	// with the old round keys.
	if err := m.Store(1, make([]byte, 32)); err == nil {
		t.Error("Store over a live key ID accepted")
	}
	m.Delete(1)
	m.Delete(7) // unknown ID: no-op
	if m.Has(1) || m.Len() != 0 {
		t.Errorf("after Delete: Has(1)=%v Len=%d", m.Has(1), m.Len())
	}
	if err := m.Store(1, make([]byte, 32)); err != nil {
		t.Errorf("Store after Delete: %v", err)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

// TestSchedulerExpandsOncePerStoredKey: every Prepare pays the modeled
// latency and counts an expansion, but the host-side schedule is built once
// per Key Memory entry and dies with it.
func TestSchedulerExpandsOncePerStoredKey(t *testing.T) {
	eng := sim.NewEngine()
	mem := NewKeyMemory()
	mem.Store(1, make([]byte, 16))
	s := NewScheduler(eng, mem)
	var got []*aes.Schedule
	prepare := func() {
		before := eng.Now()
		s.Prepare(1, func(sched *aes.Schedule) { got = append(got, sched) }, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		if d := eng.Now() - before; d != ExpandCycles(aes.Key128) {
			t.Errorf("Prepare took %d cycles, want %d", d, ExpandCycles(aes.Key128))
		}
	}
	prepare()
	prepare()
	mem.Delete(1)
	key2 := make([]byte, 16)
	key2[0] = 1
	mem.Store(1, key2)
	prepare()
	if s.Expansions != 3 {
		t.Errorf("expansions = %d, want 3", s.Expansions)
	}
	if got[0] != got[1] {
		t.Error("second Prepare on a stored key rebuilt its schedule")
	}
	if got[2] == got[0] || got[2].RoundKeys()[0] != bits.BlockFromWords([4]uint32{1 << 24}) {
		t.Error("schedule survived Delete + Store")
	}
}

func TestSchedulerLatencyAndSerialization(t *testing.T) {
	eng := sim.NewEngine()
	mem := NewKeyMemory()
	mem.Store(1, make([]byte, 16))
	mem.Store(2, make([]byte, 32))
	s := NewScheduler(eng, mem)

	var done1, done2 sim.Time
	var rk1 []bits.Block
	s.Prepare(1, func(sched *aes.Schedule) {
		rk1 = sched.RoundKeys()
		if sched.Size() != aes.Key128 || len(rk1) != 11 {
			t.Errorf("install 1: size=%v len=%d", sched.Size(), len(rk1))
		}
	}, func(err error) {
		if err != nil {
			t.Error(err)
		}
		done1 = eng.Now()
	})
	// Second request queues behind the first (one shared Key Scheduler).
	s.Prepare(2, func(sched *aes.Schedule) {
		if sched.Size() != aes.Key256 || len(sched.RoundKeys()) != 15 {
			t.Errorf("install 2: size=%v len=%d", sched.Size(), len(sched.RoundKeys()))
		}
	}, func(err error) {
		if err != nil {
			t.Error(err)
		}
		done2 = eng.Now()
	})
	eng.Run()
	if done1 != ExpandCycles(aes.Key128) {
		t.Errorf("first expansion at %d, want %d", done1, ExpandCycles(aes.Key128))
	}
	if done2 != done1+ExpandCycles(aes.Key256) {
		t.Errorf("second expansion at %d, want %d (serialized)", done2, done1+ExpandCycles(aes.Key256))
	}
	if s.Expansions != 2 {
		t.Errorf("expansions = %d", s.Expansions)
	}
	// The expansion output matches the reference key schedule.
	want := aes.ExpandKey(make([]byte, 16))
	for i := range want {
		if rk1[i] != want[i] {
			t.Fatalf("round key %d mismatch", i)
		}
	}
}

func TestSchedulerUnknownKey(t *testing.T) {
	eng := sim.NewEngine()
	s := NewScheduler(eng, NewKeyMemory())
	gotErr := false
	s.Prepare(42, func(*aes.Schedule) {
		t.Error("install called for unknown key")
	}, func(err error) { gotErr = err != nil })
	eng.Run()
	if !gotErr {
		t.Error("no error for unknown key ID")
	}
	// The scheduler must not wedge after an error.
	mem := NewKeyMemory()
	_ = mem
}

func TestCacheLRU(t *testing.T) {
	c := NewCache()
	sched := aes.MustNewSchedule(make([]byte, 16))
	for id := 1; id <= CacheSlots; id++ {
		c.Put(id, sched)
	}
	if c.Len() != CacheSlots {
		t.Fatalf("len = %d", c.Len())
	}
	// Touch key 1 so key 2 becomes LRU, then insert a 5th key.
	if _, ok := c.Get(1); !ok {
		t.Fatal("key 1 missing")
	}
	c.Put(5, sched)
	if c.Contains(2) {
		t.Error("key 2 should have been evicted (LRU)")
	}
	if !c.Contains(1) || !c.Contains(5) {
		t.Error("keys 1 and 5 should be cached")
	}
	// Re-putting an existing key must not evict.
	c.Put(5, sched)
	if c.Len() != CacheSlots {
		t.Errorf("len after re-put = %d", c.Len())
	}
	// Hit/miss accounting.
	if _, ok := c.Get(99); ok {
		t.Error("phantom hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	c.Invalidate(5)
	if c.Contains(5) || c.Len() != CacheSlots-1 {
		t.Error("invalidate failed")
	}
	c.Invalidate(999) // no-op
}
