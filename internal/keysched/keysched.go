// Package keysched models the MCCP's key infrastructure (paper §III.A):
// the Key Memory, written only by the platform's main controller and never
// readable through the MCCP data port, and the Key Scheduler, which expands
// session keys into round keys and fills the per-core Key Caches.
package keysched

import (
	"fmt"

	"mccp/internal/aes"
	"mccp/internal/sim"
)

// Latency model of the key path, in clock cycles. Expansion produces one
// 128-bit round key per ExpandPerBlock cycles on the Key Scheduler's
// datapath, and the transfer into a core's Key Cache moves four 32-bit
// words per round key across the key bus.
const (
	ExpandSetup      = 24 // fetch session key, configure the expander
	ExpandPerBlock   = 8  // one round-key block
	TransferPerBlock = 4  // four 32-bit words into the key cache
)

// ExpandCycles returns the Key Scheduler latency for one session key.
func ExpandCycles(size aes.KeySize) sim.Time {
	n := sim.Time(size.Rounds() + 1)
	return ExpandSetup + n*(ExpandPerBlock+TransferPerBlock)
}

// KeyMemory is the session-key store. Security property (paper §III.A):
// "the Key Memory cannot be accessed in write mode by the MCCP" and "there
// is no way to get the secret session key directly from the MCCP data
// port" — accordingly the only read path is the Key Scheduler's expansion,
// which never exposes raw key bytes to callers.
type KeyMemory struct {
	keys map[int]*keyEntry
}

// keyEntry is one stored session key. sched is the host-side memo of its
// expansion, filled by the Key Scheduler's first job on the key: the
// modeled expansion latency is charged on every Key Cache miss, the host
// expands a key once for as long as the entry lives.
type keyEntry struct {
	key   []byte
	sched *aes.Schedule
}

// NewKeyMemory returns an empty key memory.
func NewKeyMemory() *KeyMemory { return &KeyMemory{keys: make(map[int]*keyEntry)} }

// Store writes a session key (main-controller write port). The key length
// must be a valid AES key length, and the ID must not be live: the per-core
// Key Caches hold round keys by ID and nothing here reaches them, so an
// overwrite would leave cores answering with the old key. The main
// controller mints a fresh ID per key; a caller that re-uses one after
// Delete must first Invalidate it in every core's cache.
func (m *KeyMemory) Store(id int, key []byte) error {
	switch len(key) {
	case 16, 24, 32:
	default:
		return fmt.Errorf("keysched: invalid key length %d", len(key))
	}
	if _, ok := m.keys[id]; ok {
		return fmt.Errorf("keysched: key ID %d already stored", id)
	}
	m.keys[id] = &keyEntry{key: append([]byte(nil), key...)}
	return nil
}

// Delete erases a session key (main-controller write port). Round keys
// already in a Key Cache stay until evicted; a deleted ID can no longer be
// opened or expanded.
func (m *KeyMemory) Delete(id int) { delete(m.keys, id) }

// Len reports the number of stored keys.
func (m *KeyMemory) Len() int { return len(m.keys) }

// Has reports whether a key ID is provisioned (control-plane metadata; not
// a data-port read).
func (m *KeyMemory) Has(id int) bool { _, ok := m.keys[id]; return ok }

// Scheduler is the Key Scheduler: a single shared unit that serializes key
// expansions for all cores.
type Scheduler struct {
	eng  *sim.Engine
	mem  *KeyMemory
	busy bool
	// cur is the job the unit is working on; queue[head:] wait behind it
	// (the backing array is reused, so queueing a job does not allocate).
	cur   job
	sched *aes.Schedule // cur's expansion, between its start and its install
	queue []job
	head  int
	// start and expanded are the unit's two steps, bound once.
	start, expanded func()

	// Expansions counts completed expansions (cache-miss metric); Waits
	// the jobs that queued behind another.
	Expansions, Waits uint64
}

// job is one Prepare call waiting for, or holding, the unit.
type job struct {
	keyID   int
	install func(*aes.Schedule)
	done    func(error)
}

// NewScheduler binds a scheduler to the key memory.
func NewScheduler(eng *sim.Engine, mem *KeyMemory) *Scheduler {
	s := &Scheduler{eng: eng, mem: mem}
	s.start, s.expanded = s.startJob, s.finishExpansion
	return s
}

// Prepare expands key keyID and delivers its schedule through install
// after the modeled latency, then calls done. Requests are serialized: the
// paper has one Key Scheduler shared by all cores. install must stage the
// schedule into the target core's Key Cache. Prepare allocates nothing
// when install and done are bound once by the caller.
func (s *Scheduler) Prepare(keyID int, install func(*aes.Schedule), done func(error)) {
	j := job{keyID: keyID, install: install, done: done}
	if s.busy {
		s.Waits++
		s.queue = append(s.queue, j)
		return
	}
	s.busy = true
	s.cur = j
	s.eng.After(0, s.start)
}

// startJob fetches the current job's session key and starts its expansion.
func (s *Scheduler) startJob() {
	e, ok := s.mem.keys[s.cur.keyID]
	if !ok {
		s.finish(fmt.Errorf("keysched: unknown key ID %d", s.cur.keyID))
		return
	}
	if e.sched == nil {
		e.sched = aes.MustNewSchedule(e.key) // Store checked the length
	}
	s.sched = e.sched
	s.eng.After(ExpandCycles(e.sched.Size()), s.expanded)
}

// finishExpansion installs the current job's round keys.
func (s *Scheduler) finishExpansion() {
	s.Expansions++
	sched := s.sched
	s.sched = nil
	s.cur.install(sched)
	s.finish(nil)
}

// finish reports the current job's outcome, then starts the next queued
// job; a Prepare from inside done queues behind those already waiting.
func (s *Scheduler) finish(err error) {
	done := s.cur.done
	s.cur = job{}
	done(err)
	if s.head < len(s.queue) {
		s.cur = s.queue[s.head]
		s.queue[s.head] = job{}
		if s.head++; s.head == len(s.queue) {
			s.queue, s.head = s.queue[:0], 0
		}
		s.eng.After(0, s.start)
		return
	}
	s.busy = false
}

// CacheSlots is each core's Key Cache capacity in key contexts. One block
// RAM comfortably holds four expanded schedules (4 x 15 x 128 bits).
const CacheSlots = 4

// cacheEntry is one cached schedule.
type cacheEntry struct {
	keyID int
	sched *aes.Schedule
	used  uint64
}

// Cache is one core's Key Cache of pre-computed round keys (paper §IV.A:
// "cipher round keys are pre-computed and stored in the Key Cache").
type Cache struct {
	entries []cacheEntry
	clock   uint64

	Hits, Misses uint64
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Get looks up a key ID, returning its schedule on a hit.
func (c *Cache) Get(keyID int) (*aes.Schedule, bool) {
	for i := range c.entries {
		if c.entries[i].keyID == keyID {
			c.clock++
			c.entries[i].used = c.clock
			c.Hits++
			return c.entries[i].sched, true
		}
	}
	c.Misses++
	return nil, false
}

// Contains reports whether keyID is cached without touching LRU state or
// hit counters (the dispatch policies use it to score cores).
func (c *Cache) Contains(keyID int) bool {
	for i := range c.entries {
		if c.entries[i].keyID == keyID {
			return true
		}
	}
	return false
}

// Put inserts a schedule, evicting the least recently used entry when full.
func (c *Cache) Put(keyID int, sched *aes.Schedule) {
	c.clock++
	e := cacheEntry{keyID: keyID, sched: sched, used: c.clock}
	for i := range c.entries {
		if c.entries[i].keyID == keyID {
			c.entries[i] = e
			return
		}
	}
	if len(c.entries) < CacheSlots {
		c.entries = append(c.entries, e)
		return
	}
	victim := 0
	for i := range c.entries {
		if c.entries[i].used < c.entries[victim].used {
			victim = i
		}
	}
	c.entries[victim] = e
}

// Len reports the number of cached key contexts.
func (c *Cache) Len() int { return len(c.entries) }

// Invalidate drops a key's round keys from this core: the step between
// KeyMemory.Delete and Store when an ID is re-used. The device never calls
// it — the main controller mints fresh IDs, so a closed channel's entry is
// unreachable and leaves by LRU, and dropping it early would change later
// victim choices.
func (c *Cache) Invalidate(keyID int) {
	for i := range c.entries {
		if c.entries[i].keyID == keyID {
			c.entries[i] = c.entries[len(c.entries)-1]
			c.entries = c.entries[:len(c.entries)-1]
			return
		}
	}
}
