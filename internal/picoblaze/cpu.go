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

// CPU is one PicoBlaze-style controller instance.
//
// The controller retires one instruction every CyclesPerInstr cycles. The
// reference model schedules one engine event per instruction; this
// implementation instead batches straight-line runs inside a single event,
// advancing the clock arithmetically via Engine.TryAdvance. The batch
// yields back to the event queue exactly when the reference model's
// interleaving could differ: when a pending engine event would fire at or
// before the next retire cycle, at an OUTPUT whose handshake defers the
// done strobe, at HALT, at Stop, and at the RunUntil horizon. Cross-
// component state only changes through engine events, so between yields
// the batch is invisible — every instruction still executes at its exact
// retire cycle (Engine.Now advances through the batch) and virtual-time
// results are bit-identical to the reference model, which remains
// available via Engine.Compat and is pinned by the differential
// determinism tests.
//
// A deferred done strobe need not arrive as an event of its own: the
// Cryptographic Unit calls it from inside its completion event when the
// engine is Quiet (see cryptounit.Unit.Issue), and the batch then resumes
// there. That relies on OUTPUT being the last thing step does before it
// returns — nothing may be added after the bus.Out call.
type CPU struct {
	eng *sim.Engine
	bus Bus

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

	// Executed counts retired instructions (including stalled OUTPUT as one).
	Executed uint64
	// Trace, if non-nil, sees every retired instruction.
	Trace func(now sim.Time, pc uint16, w Word)
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
	c.tick = eng.NewTicker(c.step)
	c.outDone = func() { c.next(true) }
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

// next resumes execution after an OUTPUT handshake completes: inline when
// no pending event would interleave before the next retire cycle, through
// the event queue otherwise (exactly the reference model's behaviour). It
// runs in whichever event completed the handshake — the OUTPUT's own for an
// immediate write, the unit's acceptance or completion event otherwise.
func (c *CPU) next(advance bool) {
	if advance {
		c.pc = (c.pc + 1) & (IMemWords - 1)
	}
	if c.stopped {
		c.running = false
		return
	}
	retire := c.eng.Now() + CyclesPerInstr
	if c.eng.Compat || !c.eng.TryAdvance(retire) {
		c.tick.At(retire)
		return
	}
	c.step()
}

// step retires instructions. The two-cycle cost is charged after execution
// (fetch+execute), matching the controller's fixed rate: the loop entry
// time is the retire cycle of the instruction about to execute. Straight-
// line runs stay inside the loop (see the CPU type comment for the exact
// yield conditions).
func (c *CPU) step() {
	for {
		if c.stopped || c.halted {
			c.running = false
			return
		}
		w := c.imem[c.pc]
		c.Executed++
		if c.Trace != nil {
			c.Trace(c.eng.Now(), c.pc, w)
		}
		op := w.op()
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
		case opINPUTp:
			c.regs[x] = c.bus.In(kk)
		case opINPUTr:
			c.regs[x] = c.bus.In(c.regs[y])
		case opOUTPUTp, opOUTPUTr:
			port := kk
			if op == opOUTPUTr {
				port = c.regs[y]
			}
			// The write may stall (Cryptographic Unit handshake); execution
			// resumes CyclesPerInstr after the bus accepts it. Tail call:
			// the bus may run outDone before returning.
			c.bus.Out(port, c.regs[x], c.outDone)
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
		if c.stopped {
			c.running = false
			return
		}
		retire := c.eng.Now() + CyclesPerInstr
		if c.eng.Compat || !c.eng.TryAdvance(retire) {
			c.tick.At(retire)
			return
		}
	}
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
