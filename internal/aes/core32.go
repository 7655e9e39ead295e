package aes

import (
	"slices"

	"mccp/internal/bits"
)

// Core32 models the compact iterative AES encryption core embedded in each
// Cryptographic Unit: a 32-bit datapath that consumes a 128-bit block as
// four 32-bit words and produces the ciphertext CoreCycles() clock cycles
// after the start strobe (44/52/60 cycles for 128/192/256-bit keys).
//
// The core reads pre-computed round keys from the Key Cache; it performs no
// key expansion of its own (that is the Key Scheduler's job). Like the
// paper's core it implements encryption only.
type Core32 struct {
	sched *Schedule
	// busyUntil is the absolute cycle at which the current computation
	// finishes; the Cryptographic Unit uses it to model SAES/FAES overlap.
	busyUntil uint64
	// in and out are fields so the block function's slice arguments point
	// into the (already heap-resident) core: no per-block allocation.
	in, out bits.Block
	started bool
}

// NewCore32 returns an idle core with no key loaded.
func NewCore32() *Core32 { return &Core32{} }

// Load installs a key's schedule (from the Key Cache). It is an error to
// reload while a computation is conceptually in flight; callers sequence
// this through firmware.
func (c *Core32) Load(s *Schedule) { c.sched = s }

// LoadKeys is Load for callers holding bare round keys: the cipher key is
// the first Nk words of a FIPS-197 expansion, so it is read back from
// there, and the slice must be exactly that key's expansion.
func (c *Core32) LoadKeys(size KeySize, keys []bits.Block) {
	if len(keys) != size.Rounds()+1 {
		panic("aes: round key count does not match key size")
	}
	var key [Key256]byte
	copy(key[:bits.BlockBytes], keys[0][:])
	copy(key[bits.BlockBytes:], keys[1][:])
	s := MustNewSchedule(key[:size])
	if !slices.Equal(s.rk, keys) {
		panic("aes: round keys are not a FIPS-197 key expansion")
	}
	c.sched = s
}

// KeyLoaded reports whether round keys are installed.
func (c *Core32) KeyLoaded() bool { return c.sched != nil }

// Size returns the loaded key size.
func (c *Core32) Size() KeySize { return c.sched.size }

// Start begins encrypting in at absolute cycle now and returns the absolute
// cycle at which the result is ready. The functional result is computed
// eagerly (the simulator is not a netlist), but it may only be observed via
// Collect, which models the FAES finalization.
func (c *Core32) Start(now uint64, in bits.Block) uint64 {
	if c.sched == nil {
		panic("aes: Start with no key loaded")
	}
	c.in = in
	c.sched.blk.Encrypt(c.out[:], c.in[:])
	c.busyUntil = now + c.sched.size.CoreCycles()
	c.started = true
	return c.busyUntil
}

// Busy reports whether a started computation has not yet been collected.
func (c *Core32) Busy() bool { return c.started }

// ReadyAt returns the completion cycle of the computation in flight.
func (c *Core32) ReadyAt() uint64 { return c.busyUntil }

// Collect returns the ciphertext of the last started block and marks the
// core idle. The caller is responsible for honouring ReadyAt (the
// Cryptographic Unit's FAES instruction waits for the done line).
func (c *Core32) Collect() bits.Block {
	if !c.started {
		panic("aes: Collect with no computation in flight")
	}
	c.started = false
	return c.out
}
