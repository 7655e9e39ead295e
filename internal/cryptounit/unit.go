// Package cryptounit models the MCCP's reconfigurable Cryptographic Unit
// (paper §V): a 32-bit-datapath execution unit with a 4x128-bit bank
// register, a pluggable 128-bit cipher engine (AES in the paper's main
// build; Whirlpool or Twofish after partial reconfiguration), a GHASH core,
// a masked Xor/Comparator, a 16-bit incrementer and FIFO / inter-core I/O.
//
// Timing is calibrated to the paper's published figures:
//
//   - simple operations (XOR, INC, EQU, LOADH, MOV, NOP, LOAD, STORE) signal
//     done 6 cycles after acceptance — the paper quotes "seven clock cycles
//     from start rising edge to done falling edge" and its loop formula
//     T_CCM2core - T_GCM = T_XOR fixes the controller-visible cost at 6;
//   - SAES/SGFM are start instructions: they occupy the unit for 2 cycles
//     and launch the engine in the background (44/52/60 cycles for AES,
//     43 for a GHASH iteration);
//   - FAES/FGFM are finalize instructions: they complete 5 cycles after the
//     background engine finishes, so a serialized SAES;FAES pair costs
//     44+5 = 49 cycles with a 128-bit key, reproducing T_GCMloop = 49.
package cryptounit

import (
	"encoding/binary"
	"fmt"

	"mccp/internal/bits"
	"mccp/internal/cuisa"
	"mccp/internal/ghash"
	"mccp/internal/sim"
)

// Latency constants (clock cycles). See the package comment for their
// derivation from the paper's loop formulas.
const (
	SimpleLatency   = 6 // XOR, INC, EQU, LOADH, MOV, NOP, LOAD, STORE
	StartLatency    = 2 // SAES, SGFM foreground occupancy
	FinalizeLatency = 5 // FAES, FGFM after engine completion
	ShiftOutLatency = 2 // SHOUT once the mailbox is free
	ShiftInLatency  = 6 // SHIN once data is present (4x32-bit transfer)
)

// CipherEngine is the contract of the reconfigurable region: a background
// block-processing engine driven by the SAES/FAES instruction pair.
// aes.Core32, whirlpool.Engine and twofish.Engine implement it.
//
// Engines whose result is wider than one block (hash engines) additionally
// implement ChunkReader: FAES issued while the engine is idle reads the next
// 128-bit result chunk instead of collecting a block computation.
//
// RunAhead's periodic step relies on one timing rule: while an engine is
// Busy, its ReadyAt is the cycle Start was given plus a latency that stays
// fixed while its key is loaded. aes.Core32 (44/52/60 cycles by key size)
// and twofish.Engine keep it. whirlpool.Engine's ready cycle depends on its
// chunk phase, but it is never Busy, so the unit's timing never reads it.
type CipherEngine interface {
	// Busy reports whether a started computation has not been collected.
	Busy() bool
	// ReadyAt returns the completion cycle of the computation in flight.
	ReadyAt() uint64
	// Start begins processing in at cycle now, returning the ready cycle.
	Start(now uint64, in bits.Block) uint64
	// Collect returns the result and idles the engine.
	Collect() bits.Block
}

// ChunkReader is the wide-result extension of CipherEngine (see above).
type ChunkReader interface {
	// ReadChunk returns the next 128-bit chunk of the engine's result
	// (e.g. one quarter of a 512-bit Whirlpool digest).
	ReadChunk() bits.Block
}

// reg is a 128-bit bank register as two big-endian 64-bit halves, hi
// holding bytes 0-7. XOR, EQU, INC and MOV are 64-bit operations on it,
// the FIFOs' block moves (LOAD, STORE) and the GHASH core take the halves
// as they are, SHIN and SHOUT shift them to and from four 32-bit words;
// only the cipher engine's interface takes a bits.Block, so SAES and FAES
// convert. (A register held as a [16]byte and written as two 8-byte
// halves would be read with one 16-byte load on its next copy, which waits
// for both stores to reach the cache: a stall on every step of a dependent
// XOR chain.)
type reg struct{ hi, lo uint64 }

func regOf(b bits.Block) reg {
	return reg{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

func (r reg) block() bits.Block {
	var b bits.Block
	binary.BigEndian.PutUint64(b[:8], r.hi)
	binary.BigEndian.PutUint64(b[8:], r.lo)
	return b
}

func regOfWords(w [4]uint32) reg {
	return reg{uint64(w[0])<<32 | uint64(w[1]), uint64(w[2])<<32 | uint64(w[3])}
}

// words returns the four 32-bit sub-words, most significant first.
func (r reg) words() [4]uint32 {
	return [4]uint32{uint32(r.hi >> 32), uint32(r.hi), uint32(r.lo >> 32), uint32(r.lo)}
}

// Unit is one Cryptographic Unit instance.
type Unit struct {
	eng *sim.Engine

	// In and Out are the core's packet FIFOs (512 x 32 bits each in the
	// paper). LOAD pops four words, STORE pushes four.
	In, Out *sim.WordFIFO
	// MboxIn and MboxOut are the inter-core shift-register ports. They may
	// be nil on cores whose firmware never uses SHIN/SHOUT.
	MboxIn, MboxOut *sim.Mailbox128

	// Cipher occupies the reconfigurable region. Swapping it at runtime is
	// the partial-reconfiguration path (internal/reconfig).
	Cipher CipherEngine
	// GHash is the digit-serial GHASH core (static region).
	GHash *ghash.Core

	bank    [4]reg
	mask    uint16
	maskReg reg // bits.ByteMask(mask)
	equ     bool

	busy bool

	// The instruction port's single waiting slot. The controller blocks on
	// the start/ack handshake, so at most one instruction is ever waiting to
	// be latched: stallIn, presented for cycle stallAt or later, with its
	// acknowledge. complete latches it at the done edge; latch fires at
	// stallAt when the unit went idle before that cycle. stallRetry is the
	// one prebuilt callback that does the latching, so the (extremely hot)
	// stall path is allocation-free.
	stalled     bool
	stallIn     cuisa.Instr
	stallAt     sim.Time
	stallAccept func()
	stallRetry  func()
	latch       *sim.Ticker

	// Completion plumbing. One foreground instruction executes at a time,
	// so the effect still due is always cur's: tick fires the completion
	// event at doneAt, retire applies cur's effect if pending, and the unit
	// idles. A tick whose cycle is not doneAt belongs to an instruction
	// RunAhead has since retired, and does nothing. parked marks an accepted
	// instruction still waiting for its FIFO or mailbox: no completion is
	// scheduled for it yet.
	tick    *sim.Ticker
	doneAt  sim.Time
	parked  bool
	pending bool

	// cur is the instruction in execution. LOAD, STORE, SHIN and SHOUT wait
	// for their FIFO or mailbox by parking reexec, which starts cur again.
	cur    cuisa.Instr
	reexec func()

	// Trace, when non-nil, receives every accepted instruction with its
	// acceptance cycle (used by the disassembling tracer and tests).
	Trace func(now sim.Time, in cuisa.Instr)
	// OnDone, when non-nil, fires at every instruction completion: it is
	// the done line the paper routes to the controller's wake input.
	OnDone func()

	// IssueCount tallies accepted instructions per opcode for utilization
	// metrics and the ablation benches.
	IssueCount [16]uint64
	// Settled counts the instructions RunAhead took in periodic steps
	// (settle) rather than one at a time; IssueCount includes them. A step
	// counts its instructions before it traces the first.
	Settled uint64
}

// New returns a Unit bound to the simulation engine with the given FIFOs.
// The cipher engine and mailboxes are wired by the enclosing Cryptographic
// Core.
func New(eng *sim.Engine, in, out *sim.WordFIFO) *Unit {
	u := &Unit{
		eng:   eng,
		In:    in,
		Out:   out,
		GHash: ghash.NewCore(),
	}
	u.SetMask(0xFFFF)
	u.tick = eng.NewTicker(func() {
		if !u.busy || u.parked || u.doneAt != u.eng.Now() {
			return // superseded by a run ahead
		}
		u.retire()
		u.complete()
	})
	u.reexec = u.start
	u.stallRetry = func() {
		if u.busy || !u.stalled {
			// An instruction issued from OnDone got in first (only tests and
			// bench rungs do that): the next done edge retries, and a latch
			// event left over from before finds the slot empty.
			return
		}
		in, acc := u.stallIn, u.stallAccept
		u.stalled, u.stallAccept = false, nil
		u.accept(in, acc)
	}
	u.latch = eng.NewTicker(u.stallRetry)
	return u
}

// SetMask writes the 16-bit byte mask used by XOR and EQU. The controller
// writes it through its port map; each 8-bit half costs a controller OUTPUT
// instruction, which the controller model accounts for.
func (u *Unit) SetMask(m uint16) {
	u.mask = m
	u.maskReg = regOf(bits.ByteMask(m))
}

// Mask returns the current byte mask.
func (u *Unit) Mask() uint16 { return u.mask }

// Equ returns the comparator flag set by the last EQU instruction.
func (u *Unit) Equ() bool { return u.equ }

// Bank returns bank register r (tests and the tracer use it; firmware can
// only move data through instructions).
func (u *Unit) Bank(r int) bits.Block { return u.bank[r].block() }

// SetBank overwrites bank register r. Only tests use this; hardware has no
// such path.
func (u *Unit) SetBank(r int, v bits.Block) { u.bank[r] = regOf(v) }

// Busy reports whether a foreground instruction is executing.
func (u *Unit) Busy() bool { return u.busy }

// Reset clears architectural state between channels (bank, flags, mask).
// Background engines must be idle.
func (u *Unit) Reset() {
	if u.busy || (u.Cipher != nil && u.Cipher.Busy()) {
		panic("cryptounit: Reset while busy")
	}
	u.bank = [4]reg{}
	u.equ = false
	u.SetMask(0xFFFF)
}

// Issue presents an instruction on the instruction port at the current
// cycle: IssueAt with no wait of the controller's own.
func (u *Unit) Issue(in cuisa.Instr, onAccept func()) { u.IssueAt(in, u.eng.Now(), onAccept) }

// IssueAt presents an instruction that the controller strobes at cycle
// notBefore, which may lie ahead of the clock: the unit latches it at the
// first cycle from notBefore on at which it is idle (the start/ack handshake
// of paper section V.B, where the controller holds its OUTPUT strobe until
// the unit acknowledges), and onAccept runs at that cycle. Presenting early
// is what lets a controller that knows its next strobe cycle skip the event
// that would only find the unit busy — the FIFO's ready time, on the
// instruction port. One instruction can wait; presenting a second is a
// model bug and panics.
//
// The reference handshake is three engine events per instruction: the
// completion tick, the waiting instruction's retry and onAccept, the last
// two zero-delay. Unless the engine is in Compat, accept and complete run
// both inline instead, so an instruction costs the one tick (plus a latch
// event at notBefore when nothing else is scheduled by then: the unit fell
// idle before it, or waits for a FIFO or mailbox). That moves this core's
// continuation ahead of other cores' events of the same cycle and nothing
// else (see package sim for why that order is free). Inside a counted loop
// the controller does not come here for every instruction: RunAhead takes
// whole stretches of the loop at one tick. Issue and IssueAt must be their
// caller's last act in the current event (the controller's OUTPUT is),
// since onAccept may have run by the time they return.
func (u *Unit) IssueAt(in cuisa.Instr, notBefore sim.Time, onAccept func()) {
	if !u.busy && notBefore <= u.eng.Now() {
		// The slot may be taken all the same: OnDone issuing from inside
		// complete overtakes the waiting instruction, as on the reference
		// path, where the released retry is still queued at that point.
		u.accept(in, onAccept)
		return
	}
	if u.stalled {
		panic(fmt.Sprintf("cryptounit: %v presented at cycle %d while %v waits on the instruction port", in, u.eng.Now(), u.stallIn))
	}
	u.stalled = true
	u.stallIn, u.stallAt, u.stallAccept = in, notBefore, onAccept
	if !u.busy || u.parked {
		// Nothing is scheduled that would bring the clock to notBefore: an
		// idle unit latches there, and behind a parked one the event only
		// marks the strobe's cycle, as the reference controller's own event
		// would (an engine that drains while the unit waits for input then
		// stands where the reference one does).
		u.latch.At(notBefore)
	}
}

// accept latches an instruction into the idle unit and acknowledges it.
func (u *Unit) accept(in cuisa.Instr, onAccept func()) {
	u.take(in, u.eng.Now())
	if onAccept != nil && u.eng.Compat {
		u.eng.After(0, onAccept)
		onAccept = nil
	}
	u.start()
	if onAccept != nil {
		onAccept()
	}
}

// take latches in at cycle at: the unit is busy with it, and it is counted
// and traced.
func (u *Unit) take(in cuisa.Instr, at sim.Time) {
	u.busy = true
	u.cur = in
	u.IssueCount[in.Op()&0xF]++
	if u.Trace != nil {
		u.Trace(at, in)
	}
}

// start executes the latched instruction at the current cycle and schedules
// its completion, or parks it until its FIFO or mailbox is ready.
func (u *Unit) start() {
	done, ok := u.execute(u.cur, u.eng.Now(), true)
	u.parked = !ok
	if ok {
		u.pending, u.doneAt = true, done
		u.tick.At(done)
	}
}

// retire applies the effect of cur, the instruction in flight, due at its
// done edge doneAt, unless it has been applied already.
func (u *Unit) retire() {
	if u.pending {
		u.pending = false
		u.effect(u.cur, u.doneAt)
	}
}

// effect applies the effect of in, due at its done edge done. Instructions
// not named here have none: they did their work when they started.
func (u *Unit) effect(in cuisa.Instr, done sim.Time) {
	a, b := in.A(), in.B()
	switch in.Op() {
	case cuisa.OpSTORE:
		// The words become visible at the done edge, which a run ahead
		// applies before the clock gets there.
		u.Out.PushBlockAt(u.bank[a].hi, u.bank[a].lo, done)
	case cuisa.OpLOADH:
		u.GHash.LoadH64(u.bank[a].hi, u.bank[a].lo)
	case cuisa.OpFGFM:
		u.bank[a].hi, u.bank[a].lo = u.GHash.Collect64()
	case cuisa.OpFAES:
		if u.Cipher.Busy() {
			u.bank[a] = regOf(u.Cipher.Collect())
		} else {
			// An idle engine is a ChunkReader (execute checked).
			u.bank[a] = regOf(u.Cipher.(ChunkReader).ReadChunk())
		}
	case cuisa.OpINC:
		// The Inc core adds 1..4 to the 16 least significant bits and
		// wraps there.
		r := &u.bank[a]
		r.lo = r.lo&^0xFFFF | (r.lo+uint64(b)+1)&0xFFFF
	case cuisa.OpXOR:
		x, y, m := u.bank[a], u.bank[b], u.maskReg
		u.bank[b] = reg{(x.hi ^ y.hi) & m.hi, (x.lo ^ y.lo) & m.lo}
	case cuisa.OpEQU:
		x, y, m := u.bank[a], u.bank[b], u.maskReg
		u.equ = (x.hi^y.hi)&m.hi|(x.lo^y.lo)&m.lo == 0
	case cuisa.OpMOV:
		u.bank[b] = u.bank[a]
	}
}

// RunAhead runs a counted firmware loop ahead of the clock: iters
// iterations of body, each byte a unit instruction, whose first strobe
// comes at cycle at, every later strobe step cycles after the unit took the
// one before, and each iteration's first strobe edge cycles after the unit
// took the previous iteration's last (the controller's loop bookkeeping).
// It returns how many strobes the unit took and the cycle it took the last;
// the controller goes on from there.
//
// Each instruction is accepted at max(strobe, done of the one before) and
// executed by the same execute as on the event path, at that cycle; the
// effect of the one before is applied first. Only the last one taken is
// left in flight, with its completion scheduled; the completion already
// scheduled for the instruction in flight on entry is superseded. The done
// strobes in between go undelivered: OnDone is the controller's wake input,
// and the controller is not halted while it hands the unit a loop. What
// others can see stays cycle-exact: a LOAD pops its block at its start
// cycle (sim.WordFIFO.PopBlockAt), a STORE's block becomes poppable at its
// done cycle (PushBlockAt).
//
// The steady state is settled rather than stepped. An iteration's cycles
// follow from the unit's timing state at its head (headState), so once two
// consecutive heads of a body of at most maxSettledBody instructions have
// the same state, every later iteration is the last one shifted by the
// period: settle takes as many as settleBound allows on those cycles, doing
// only their data work, and Settled counts the instructions it took.
//
// The run takes nothing under Engine.Compat, while an instruction waits on
// the port or the unit waits for a FIFO or mailbox, nor when body shifts
// through the inter-core mailbox (a neighbour core shares it) or finalizes
// on a ChunkReader engine. It stops before the first instruction that would
// be accepted past Engine.Horizon, a LOAD whose block is not stored and
// ready by its start, and a STORE without space.
func (u *Unit) RunAhead(body []uint8, iters int, at, step, edge sim.Time) (n int, last sim.Time) {
	if u.eng.Compat || u.stalled || u.parked {
		return 0, 0
	}
	_, chunk := u.Cipher.(ChunkReader)
	for _, v := range body {
		if op := cuisa.Instr(v).Op(); op == cuisa.OpSHIN || op == cuisa.OpSHOUT || op == cuisa.OpFAES && chunk {
			return 0, 0
		}
	}
	horizon, idle := u.eng.Horizon(), u.eng.Now()
	if u.busy {
		idle = u.doneAt
	}
	// tpl is the iteration being stepped, relative to its head's strobe.
	// Once a stretch is settled, whatever bound ended it stops the run within
	// the next iteration, so the rest is stepped.
	var tpl iteration
	periodic := len(body) <= maxSettledBody
	strobe, head, pos := at, at, 0
	for total := iters * len(body); n < total; {
		in := cuisa.Instr(body[pos])
		acc := max(strobe, idle)
		if acc > horizon {
			break
		}
		u.retire()
		if pos == 0 && periodic {
			s := u.headState(strobe, idle)
			if n > 0 && s == tpl.state {
				period := strobe - head
				if k := u.settleBound(body, &tpl, strobe, period, (total-n)/len(body), horizon); k > 0 {
					last = u.settle(body, &tpl, strobe, period, k)
					n += k * len(body)
					idle, strobe, periodic = u.doneAt, last+edge, false
					continue
				}
			}
			tpl.state, head = s, strobe
		}
		done, ok := u.execute(in, acc, false)
		if !ok {
			break
		}
		u.take(in, acc)
		u.pending, u.doneAt = true, done
		idle, last = done, acc
		if periodic {
			tpl.acc[pos], tpl.done[pos] = acc-head, done-head
		}
		n++
		if pos++; pos == len(body) {
			pos, strobe = 0, acc+edge
		} else {
			strobe = acc + step
		}
	}
	if n > 0 {
		u.tick.At(u.doneAt)
	}
	return n, last
}

// maxSettledBody is the longest loop body RunAhead settles; a longer one is
// stepped throughout.
const maxSettledBody = 16

// headState is the unit's timing state at an iteration head, after the
// effect of the instruction before it, relative to the head's strobe: the
// cycle the unit falls idle, and the cycles the cipher engine and the GHASH
// core finish, each clamped at the strobe, since an earlier cycle stalls
// nothing the iteration does. With the engines' latencies fixed (see
// CipherEngine) it decides every cycle of the iteration and the state at the
// next head, as long as its LOADs find their blocks and its STOREs space.
type headState struct {
	idle, cipher, ghash sim.Time
	cipherBusy          bool
}

func (u *Unit) headState(strobe, idle sim.Time) headState {
	s := headState{idle: max(idle, strobe) - strobe}
	if u.Cipher != nil && u.Cipher.Busy() {
		s.cipherBusy = true
		s.cipher = max(sim.Time(u.Cipher.ReadyAt()), strobe) - strobe
	}
	if u.GHash.Busy() {
		s.ghash = max(sim.Time(u.GHash.ReadyAt()), strobe) - strobe
	}
	return s
}

// iteration is one stepped iteration: the state at its head and each
// instruction's acceptance and done cycles, relative to the head's strobe.
type iteration struct {
	state     headState
	acc, done [maxSettledBody]sim.Time
}

// settleBound returns how many iterations from the head at strobe repeat
// tpl, each period cycles after the one before: at most left, only those
// whose last instruction is accepted by horizon, as many as the output FIFO
// has space for (nothing is in flight at a head, so Space counts every
// STORE's four words) and as many as find each LOAD's block stored now and
// ready by its start.
func (u *Unit) settleBound(body []uint8, tpl *iteration, strobe, period sim.Time, left int, horizon sim.Time) int {
	end := strobe + tpl.acc[len(body)-1]
	if end > horizon {
		return 0
	}
	k := left
	if m := (horizon - end) / period; m < sim.Time(k) {
		k = int(m) + 1
	}
	loads, stores := 0, 0
	for _, v := range body {
		switch cuisa.Instr(v).Op() {
		case cuisa.OpLOAD:
			loads++
		case cuisa.OpSTORE:
			stores++
		}
	}
	if stores > 0 {
		k = min(k, u.Out.Space()/(4*stores))
	}
	j := 0
	for pos, v := range body {
		if k > 0 && cuisa.Instr(v).Op() == cuisa.OpLOAD {
			k = u.In.ReadyBlocks(k, j, loads, strobe+tpl.acc[pos], period)
			j++
		}
	}
	return k
}

// settle takes k iterations from the head at strobe on tpl's cycles, the
// m-th shifted by m periods, and returns the cycle it accepted the last
// instruction at. Each instruction is counted, traced and does its work
// with no timing: LOAD, SAES and SGFM their start, every other its effect
// (settleBound found each LOAD's block ready and each STORE's space). The
// last instruction is left in flight as a stepped run leaves it.
func (u *Unit) settle(body []uint8, tpl *iteration, strobe, period sim.Time, k int) sim.Time {
	n := k * len(body)
	u.Settled += uint64(n)
	for _, v := range body {
		u.IssueCount[cuisa.Instr(v).Op()&0xF] += uint64(k)
	}
	pos := 0
	for i := 1; i < n; i++ {
		in := cuisa.Instr(body[pos])
		acc, done := strobe+tpl.acc[pos], strobe+tpl.done[pos]
		if u.Trace != nil {
			u.Trace(acc, in)
		}
		switch r := &u.bank[in.A()]; in.Op() {
		case cuisa.OpLOAD:
			r.hi, r.lo, _ = u.In.PopBlockAt(acc)
		case cuisa.OpSAES:
			u.Cipher.Start(uint64(acc), r.block())
		case cuisa.OpSGFM:
			u.GHash.Start64(uint64(done-StartLatency), r.hi, r.lo)
		default:
			u.effect(in, done)
		}
		if pos++; pos == len(body) {
			pos, strobe = 0, strobe+period
		}
	}
	in, acc := cuisa.Instr(body[pos]), strobe+tpl.acc[pos]
	if u.Trace != nil {
		u.Trace(acc, in)
	}
	u.busy, u.cur = true, in
	u.doneAt, _ = u.execute(in, acc, false)
	u.pending = true
	return acc
}

// complete idles the unit, strobes the done line, then latches the waiting
// instruction if its cycle has come (through a retry event under Compat).
func (u *Unit) complete() {
	u.busy = false
	inline := false
	if u.stalled {
		switch {
		case u.stallAt > u.eng.Now():
			u.latch.At(u.stallAt)
		case u.eng.Compat:
			u.eng.After(0, u.stallRetry)
		default:
			inline = true
		}
	}
	if u.OnDone != nil {
		u.OnDone()
	}
	if inline {
		u.stallRetry()
	}
}

// execute starts in at cycle at: the cycle it was accepted, or on the event
// path the later one at which its FIFO or mailbox became ready. It returns
// the cycle of its done strobe; the instruction's effect (see retire) is due
// then. The event path schedules the effect, a run ahead applies it before
// the next instruction starts; either way effects land in instruction
// order, each before the next instruction starts. ok is false when a LOAD
// finds no block stored and ready, a STORE no space, a SHIN or SHOUT its
// mailbox not ready: nothing has changed then, and with park set a retry of
// cur is parked until the state changes.
func (u *Unit) execute(in cuisa.Instr, at sim.Time, park bool) (done sim.Time, ok bool) {
	a := in.A()
	now := uint64(at)
	switch in.Op() {
	case cuisa.OpNOP, cuisa.OpRSV1, cuisa.OpRSV2, cuisa.OpLOADH, cuisa.OpINC, cuisa.OpXOR, cuisa.OpEQU, cuisa.OpMOV:
		return at + SimpleLatency, true

	case cuisa.OpLOAD:
		hi, lo, ok := u.In.PopBlockAt(at)
		if !ok {
			if park {
				u.In.WhenPoppable(4, u.reexec)
			}
			return 0, false
		}
		u.bank[a] = reg{hi, lo}
		return at + SimpleLatency, true

	case cuisa.OpSTORE:
		// The block is pushed at the done edge, so downstream consumers
		// observe it when the instruction retires. (The bank cannot change
		// in between — the unit stays busy — so the effect reads it then.)
		if !u.Out.CanPush(4) {
			if park {
				u.Out.WhenPushable(4, u.reexec)
			}
			return 0, false
		}
		return at + SimpleLatency, true

	case cuisa.OpSGFM:
		start := now
		if u.GHash.Busy() && u.GHash.ReadyAt() > now {
			start = u.GHash.ReadyAt() // stall until the running iteration ends
		}
		u.GHash.Start64(start, u.bank[a].hi, u.bank[a].lo)
		return sim.Time(start) + StartLatency, true

	case cuisa.OpFGFM:
		ready := now
		if u.GHash.Busy() && u.GHash.ReadyAt() > now {
			ready = u.GHash.ReadyAt()
		}
		return sim.Time(ready) + FinalizeLatency, true

	case cuisa.OpSAES:
		if u.Cipher == nil {
			panic("cryptounit: SAES with no cipher engine configured")
		}
		if u.Cipher.Busy() {
			panic(fmt.Sprintf("cryptounit: SAES at cycle %d while engine busy (firmware must FAES first)", now))
		}
		u.Cipher.Start(now, u.bank[a].block())
		return at + StartLatency, true

	case cuisa.OpFAES:
		if u.Cipher == nil {
			panic("cryptounit: FAES with no cipher engine configured")
		}
		if !u.Cipher.Busy() {
			// Hash engines expose their wide result through the finalize
			// path: FAES on an idle ChunkReader reads the next digest chunk.
			if _, ok := u.Cipher.(ChunkReader); !ok {
				panic("cryptounit: FAES with no computation in flight")
			}
		}
		return sim.Time(max(u.Cipher.ReadyAt(), now)) + FinalizeLatency, true

	case cuisa.OpSHIN:
		if u.MboxIn == nil {
			panic("cryptounit: SHIN with no inter-core input port")
		}
		w, ok := u.MboxIn.TryTake()
		if !ok {
			if park {
				u.MboxIn.WhenTakeable(u.reexec)
			}
			return 0, false
		}
		u.bank[a] = regOfWords(w)
		return at + ShiftInLatency, true

	case cuisa.OpSHOUT:
		if u.MboxOut == nil {
			panic("cryptounit: SHOUT with no inter-core output port")
		}
		if !u.MboxOut.TryPut(u.bank[a].words()) {
			if park {
				u.MboxOut.WhenPuttable(u.reexec)
			}
			return 0, false
		}
		return at + ShiftOutLatency, true
	}
	panic(fmt.Sprintf("cryptounit: invalid instruction %#02x", uint8(in)))
}
