package picoblaze

import (
	"fmt"

	"mccp/internal/sim"
)

// Bus is the controller's I/O space. The Cryptographic Core wires INPUT
// ports to its status/parameter registers and OUTPUT ports to the
// Cryptographic Unit instruction port, the mask register and the
// result/flush strobes.
type Bus interface {
	// In services an INPUT instruction.
	In(port uint8) uint8
	// Out services an OUTPUT instruction. done must be invoked exactly once
	// when the write completes; a bus may delay it to model a stalled
	// handshake (the Cryptographic Unit holds the controller until it
	// accepts the instruction strobe).
	Out(port uint8, val uint8, done func())
}

// EarlyBus is an optional extension of Bus for a port that can take a write
// before its cycle has come, one OUTPUT at a time or a counted loop's worth
// at once. New asserts it once; a bus without it sees every OUTPUT at its
// retire cycle.
type EarlyBus interface {
	Bus
	// OutAt offers the OUTPUT that retires at cycle at, ahead of the engine
	// clock. A bus that accepts it returns true and owes done exactly as Out
	// does, at a cycle not before at (the Cryptographic Core accepts unit
	// instructions while the unit is busy: the unit latches them when it
	// falls idle, so the controller need not come back to find it busy). A
	// bus that returns false has done nothing, and the controller presents
	// the write through Out at its cycle.
	OutAt(port uint8, val uint8, at sim.Time, done func()) bool
	// OutLoop offers a counted loop at its head (see CPU): iters iterations,
	// the current one included, of OUTPUTs of body's values to port, the
	// first retiring at cycle at. Within an iteration each OUTPUT retires
	// step cycles after the bus took the one before; the first of the next
	// iteration edge cycles after the bus took the last (the SUB and JUMP NZ
	// in between). A bus that takes the first n strobes, in order, returns n
	// and the cycle it took the last; it owes no done for them, and the
	// controller goes on step cycles after that. A bus that returns 0 has
	// done nothing.
	OutLoop(port uint8, body []uint8, iters int, at, step, edge sim.Time) (n int, last sim.Time)
}

// maxLoopOuts bounds the OUTPUTs of a counted loop the controller hands to
// its bus, so the values fit a buffer of the CPU's own.
const maxLoopOuts = 16

// noLoop is a loop head no program counter can hold.
const noLoop = ^uint16(0)

// countedLoop is the last loop a taken backward JUMP NZ closed: head is its
// target, outs the number of OUTPUTs to port from head on when the loop is
// counted (0 when it is not), reg the counter the SUB decrements.
type countedLoop struct {
	head      uint16
	outs, reg int
	port      uint8
	vals      [maxLoopOuts]uint8
}

// CPU is one PicoBlaze-style controller instance.
//
// The controller retires one instruction every CyclesPerInstr cycles. The
// reference model (Engine.Compat) schedules one engine event per
// instruction. This implementation keeps the retire cycle in a clock of its
// own: instructions that touch only registers, flags, the stack and the
// program counter retire against it without touching the engine, whatever
// else is pending there, because nothing outside the controller can observe
// them. The local clock meets the engine's (Engine.TryAdvance, else one
// scheduled step) exactly where the controller and the rest of the model
// can see each other: at INPUT, at HALT, at every OUTPUT the bus does not
// take early (see EarlyBus), and at the RunUntil horizon, past which nothing
// is retired. Those run at their exact cycle and in engine order; virtual-
// time results are bit-identical to the reference model, which the
// differential determinism tests pin.
//
// Between those points Executed, the program counter and the registers may
// therefore lead the engine clock, by the register-only instructions already
// retired and the OUTPUTs the bus took early (one, or a counted loop's worth,
// see below), and the engine's clock is not moved on their account. Stop
// likewise takes effect where the local clock next meets the engine's.
//
// A counted loop goes further. When a taken backward JUMP NZ closes a loop
// whose body is OUTPUTs to one constant port followed by SUB r,01 — r never
// output — the controller remembers it, read from its instruction memory.
// Whenever it then reaches that loop's head, it offers the whole remaining
// loop to its bus (EarlyBus.OutLoop); what the bus takes retires at once —
// OUTPUTs, SUBs and JUMPs, counter and flags — and the controller goes on
// after the last OUTPUT taken, ahead of the clock as above.
//
// A deferred done strobe arrives from inside the event that completed the
// handshake (the Cryptographic Unit's completion event, see
// cryptounit.Unit.IssueAt), and the controller goes on from there. That
// relies on OUTPUT being the last thing run does before it returns — nothing
// may be added after the bus call.
type CPU struct {
	eng   *sim.Engine
	bus   Bus
	early EarlyBus // bus, when it implements the extension

	imem  []Word
	pc    uint16
	regs  [16]uint8
	zero  bool
	carry bool
	stack []uint16
	// intEnabled mirrors ENABLE/DISABLE INTERRUPT; the MCCP firmware uses
	// the Data Available interrupt path at the Task Scheduler level, so the
	// flag is tracked but no asynchronous delivery is modeled.
	intEnabled bool

	running bool // an instruction step is scheduled
	halted  bool // parked by HALT, waiting for Wake
	stopped bool // Stop was called (core shut down / reprogrammed)

	// tick reschedules step without allocating a closure per event;
	// outDone is the reusable OUTPUT completion continuation.
	tick    *sim.Ticker
	outDone func()

	loop countedLoop

	// Executed counts retired instructions (including stalled OUTPUT as one).
	Executed uint64
}

// New builds a CPU around the program image. Programs shorter than
// IMemWords are zero-padded (word 0 disassembles as LOAD s0,00 — harmless,
// but firmware never falls through thanks to explicit jumps).
func New(eng *sim.Engine, bus Bus, program []Word) *CPU {
	if len(program) > IMemWords {
		panic(fmt.Sprintf("picoblaze: program of %d words exceeds %d-word instruction memory", len(program), IMemWords))
	}
	imem := make([]Word, IMemWords)
	copy(imem, program)
	c := &CPU{eng: eng, bus: bus, imem: imem, stack: make([]uint16, 0, StackDepth)}
	c.loop.head = noLoop
	c.early, _ = bus.(EarlyBus)
	c.tick = eng.NewTicker(c.step)
	c.outDone = c.next
	return c
}

// LoadProgram replaces the instruction memory (program swap on channel
// reconfiguration). The CPU must be stopped or halted.
func (c *CPU) LoadProgram(program []Word) {
	if len(program) > IMemWords {
		panic("picoblaze: program too large")
	}
	for i := range c.imem {
		if i < len(program) {
			c.imem[i] = program[i]
		} else {
			c.imem[i] = 0
		}
	}
	c.loop.head = noLoop
}

// Reset rewinds the program counter and architectural state.
func (c *CPU) Reset() {
	c.pc = 0
	c.regs = [16]uint8{}
	c.zero, c.carry = false, false
	c.stack = c.stack[:0]
	c.halted = false
	c.stopped = false
}

// Start begins (or resumes) execution at the current program counter.
func (c *CPU) Start() {
	c.stopped = false
	if c.running || c.halted {
		return
	}
	c.running = true
	// Each instruction retires at the end of its two-cycle fetch/execute,
	// so the first instruction's effects land at cycle +2.
	c.tick.After(CyclesPerInstr)
}

// Stop freezes the CPU after the current instruction; Start resumes it.
func (c *CPU) Stop() { c.stopped = true }

// Halted reports whether the CPU is parked on a HALT instruction.
func (c *CPU) Halted() bool { return c.halted }

// Wake releases a HALTed CPU; the paper's custom HALT wakes on the
// Cryptographic Unit done signal, and the Task Scheduler start strobe uses
// the same line. Waking a non-halted CPU is a no-op (the level is re-checked
// by firmware via its status port).
func (c *CPU) Wake() {
	if !c.halted || c.stopped {
		return
	}
	c.halted = false
	if !c.running {
		c.running = true
		// The HALT instruction's own two-cycle cost is charged here, on the
		// wake edge.
		c.tick.After(CyclesPerInstr)
	}
}

// Reg returns register sX (tests and the tracer use it).
func (c *CPU) Reg(x int) uint8 { return c.regs[x] }

// PC returns the current program counter.
func (c *CPU) PC() uint16 { return c.pc }

// Flags returns (zero, carry).
func (c *CPU) Flags() (bool, bool) { return c.zero, c.carry }

// next resumes execution after an OUTPUT handshake completes, in whichever
// event completed it — the OUTPUT's own for an immediate write, the unit's
// completion or latch event otherwise. The next instruction retires
// CyclesPerInstr later.
func (c *CPU) next() {
	c.pc = (c.pc + 1) & (IMemWords - 1)
	if c.stopped {
		c.running = false
		return
	}
	c.run(c.eng.Now() + CyclesPerInstr)
}

// step is the scheduled entry: the instruction at pc retires now.
func (c *CPU) step() {
	if c.stopped || c.halted {
		c.running = false
		return
	}
	c.run(c.eng.Now())
}

// run retires instructions from cycle t on, t being the retire cycle of the
// instruction at pc (the two-cycle cost is charged after execution, fetch
// plus execute, matching the controller's fixed rate). See the CPU type
// comment for where the local clock t is brought back to the engine's.
func (c *CPU) run(t sim.Time) {
	compat, horizon := c.eng.Compat, c.eng.Horizon()
	for {
		ahead := !compat && t <= horizon
		if c.pc == c.loop.head && c.loop.outs > 0 && ahead && c.early != nil {
			if last, ok := c.offerLoop(t); ok {
				t = last + CyclesPerInstr
				continue
			}
		}
		w := c.imem[c.pc]
		op := w.op()
		if t != c.eng.Now() {
			// The local clock leads the engine's. It runs on through
			// anything the bus cannot see, and through an OUTPUT the bus
			// takes early; otherwise the engine catches up first.
			if out := op == opOUTPUTp || op == opOUTPUTr; ahead && out && c.early != nil &&
				c.early.OutAt(c.port(w), c.regs[w.x()], t, c.outDone) {
				c.Executed++
				return
			}
			bus := op >= opINPUTp && op <= opOUTPUTr || op == opHALT
			if (bus || !ahead) && (compat || !c.eng.TryAdvance(t)) {
				c.tick.At(t)
				return
			}
		}
		c.Executed++
		x, y, kk := w.x(), w.y(), w.kk()
		advance := true

		switch op {
		case opLOADk:
			c.regs[x] = kk
		case opLOADr:
			c.regs[x] = c.regs[y]
		case opANDk, opANDr:
			v := kk
			if op == opANDr {
				v = c.regs[y]
			}
			c.regs[x] &= v
			c.zero, c.carry = c.regs[x] == 0, false
		case opORk, opORr:
			v := kk
			if op == opORr {
				v = c.regs[y]
			}
			c.regs[x] |= v
			c.zero, c.carry = c.regs[x] == 0, false
		case opXORk, opXORr:
			v := kk
			if op == opXORr {
				v = c.regs[y]
			}
			c.regs[x] ^= v
			c.zero, c.carry = c.regs[x] == 0, false
		case opADDk, opADDr:
			v := kk
			if op == opADDr {
				v = c.regs[y]
			}
			s := uint16(c.regs[x]) + uint16(v)
			c.regs[x] = uint8(s)
			c.zero, c.carry = c.regs[x] == 0, s > 0xFF
		case opADDCYk, opADDCYr:
			v := kk
			if op == opADDCYr {
				v = c.regs[y]
			}
			s := uint16(c.regs[x]) + uint16(v)
			if c.carry {
				s++
			}
			c.regs[x] = uint8(s)
			c.zero, c.carry = c.regs[x] == 0, s > 0xFF
		case opSUBk, opSUBr:
			v := kk
			if op == opSUBr {
				v = c.regs[y]
			}
			d := uint16(c.regs[x]) - uint16(v)
			c.regs[x] = uint8(d)
			c.zero, c.carry = c.regs[x] == 0, d > 0xFF // borrow
		case opSUBCYk, opSUBCYr:
			v := kk
			if op == opSUBCYr {
				v = c.regs[y]
			}
			d := uint16(c.regs[x]) - uint16(v)
			if c.carry {
				d--
			}
			c.regs[x] = uint8(d)
			c.zero, c.carry = c.regs[x] == 0, d > 0xFF
		case opCOMPAREk, opCOMPAREr:
			v := kk
			if op == opCOMPAREr {
				v = c.regs[y]
			}
			c.zero = c.regs[x] == v
			c.carry = c.regs[x] < v
		case opINPUTp, opINPUTr:
			c.regs[x] = c.bus.In(c.port(w))
		case opOUTPUTp, opOUTPUTr:
			// The write may stall (Cryptographic Unit handshake); execution
			// resumes CyclesPerInstr after the bus accepts it. Tail call:
			// the bus may run outDone before returning.
			c.bus.Out(c.port(w), c.regs[x], c.outDone)
			return
		case opSHIFTR:
			v := c.regs[x]
			var in uint8
			switch kk & 7 {
			case sh0:
				in = 0
			case sh1:
				in = 1
			case shX:
				in = v & 1
			case shA:
				if c.carry {
					in = 1
				}
			case shRot:
				in = v & 1
			}
			c.carry = v&1 != 0
			c.regs[x] = v>>1 | in<<7
			c.zero = c.regs[x] == 0
		case opSHIFTL:
			v := c.regs[x]
			var in uint8
			switch kk & 7 {
			case sh0:
				in = 0
			case sh1:
				in = 1
			case shX:
				in = v & 1 // duplicate LSB
			case shA:
				if c.carry {
					in = 1
				}
			case shRot:
				in = v >> 7
			}
			c.carry = v&0x80 != 0
			c.regs[x] = v<<1 | in
			c.zero = c.regs[x] == 0
		case opJUMP, opJUMPZ, opJUMPNZ, opJUMPC, opJUMPNC:
			if c.cond(op - opJUMP) {
				if op == opJUMPNZ && w.addr() < c.pc && w.addr() != c.loop.head {
					c.noteLoop(w.addr())
				}
				c.pc = w.addr()
				advance = false
			}
		case opCALL, opCALLZ, opCALLNZ, opCALLC, opCALLNC:
			if c.cond(op - opCALL) {
				if len(c.stack) == StackDepth {
					panic("picoblaze: CALL stack overflow")
				}
				c.stack = append(c.stack, c.pc)
				c.pc = w.addr()
				advance = false
			}
		case opRETURN, opRETURNZ, opRETURNNZ, opRETURNC, opRETURNNC:
			if c.cond(op - opRETURN) {
				if len(c.stack) == 0 {
					panic("picoblaze: RETURN with empty stack")
				}
				c.pc = c.stack[len(c.stack)-1] + 1
				c.stack = c.stack[:len(c.stack)-1]
				advance = false
			}
		case opHALT:
			// Park immediately; Wake charges the instruction's two cycles on
			// resume. Parking synchronously (rather than after a delay) keeps a
			// wake strobe arriving in the next cycle from being lost.
			c.pc = (c.pc + 1) & (IMemWords - 1)
			c.halted = true
			c.running = false
			return
		case opEINT:
			c.intEnabled = true
		case opDINT:
			c.intEnabled = false
		case opRETI:
			// Interrupt delivery is not modeled (see intEnabled); treat as
			// RETURN so shared subroutines remain usable.
			if len(c.stack) == 0 {
				panic("picoblaze: RETURNI with empty stack")
			}
			c.pc = c.stack[len(c.stack)-1] + 1
			c.stack = c.stack[:len(c.stack)-1]
			c.intEnabled = kk&1 != 0
			advance = false
		default:
			panic(fmt.Sprintf("picoblaze: illegal opcode %#x at pc %#x", op, c.pc))
		}

		if advance {
			c.pc = (c.pc + 1) & (IMemWords - 1)
		}
		t += CyclesPerInstr
	}
}

// port returns the port an INPUT or OUTPUT addresses: the constant pp, or
// the contents of sY in the indirect form.
func (c *CPU) port(w Word) uint8 {
	if op := w.op(); op == opINPUTr || op == opOUTPUTr {
		return c.regs[w.y()]
	}
	return w.kk()
}

// noteLoop remembers the loop from head to the JUMP NZ at pc, and whether it
// is counted: OUTPUTs to one constant port from head on, then SUB r,01 with
// r none of theirs.
func (c *CPU) noteLoop(head uint16) {
	c.loop.head, c.loop.outs = head, 0
	outs := int(c.pc-head) - 1
	sub := c.imem[c.pc-1]
	if outs < 1 || outs > maxLoopOuts || sub.op() != opSUBk || sub.kk() != 1 {
		return
	}
	port := c.imem[head].kk()
	for _, w := range c.imem[head : c.pc-1] {
		if w.op() != opOUTPUTp || w.kk() != port || w.x() == sub.x() {
			return
		}
	}
	c.loop.outs, c.loop.reg, c.loop.port = outs, sub.x(), port
}

// offerLoop offers the counted loop at pc, its first OUTPUT retiring at t,
// to the bus. If the bus takes n > 0 OUTPUTs it retires them and the SUB and
// JUMP NZ of every iteration the bus went past, leaves pc after the last
// OUTPUT taken and returns the cycle that was taken at.
func (c *CPU) offerLoop(t sim.Time) (last sim.Time, ok bool) {
	l := &c.loop
	vals := l.vals[:l.outs]
	for i := range vals {
		vals[i] = c.regs[c.imem[int(l.head)+i].x()]
	}
	iters := int(c.regs[l.reg])
	if iters == 0 {
		iters = 256 // SUB wraps the counter round
	}
	n, last := c.early.OutLoop(l.port, vals, iters, t, CyclesPerInstr, 3*CyclesPerInstr)
	if n == 0 {
		return 0, false
	}
	crossed := (n - 1) / l.outs
	c.Executed += uint64(n + 2*crossed)
	if crossed > 0 {
		// The flags are the last SUB's (its JUMP NZ was taken).
		prev := c.regs[l.reg] - uint8(crossed-1)
		c.regs[l.reg] = prev - 1
		c.zero, c.carry = false, prev == 0
	}
	c.pc = l.head + uint16((n-1)%l.outs) + 1
	return last, true
}

// cond evaluates a 0..4 condition index: always, Z, NZ, C, NC.
func (c *CPU) cond(idx uint32) bool {
	switch idx {
	case 0:
		return true
	case 1:
		return c.zero
	case 2:
		return !c.zero
	case 3:
		return c.carry
	case 4:
		return !c.carry
	}
	panic("picoblaze: bad condition")
}
