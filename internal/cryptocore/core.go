// Package cryptocore assembles one Cryptographic Core of the MCCP
// (paper §IV): an 8-bit PicoBlaze-style controller, a Cryptographic Unit,
// two 512 x 32-bit packet FIFOs, the inter-core shift-register ports, a key
// cache of pre-computed round keys and the parameter/status glue between
// the controller and the Task Scheduler.
package cryptocore

import (
	"fmt"

	"mccp/internal/aes"
	"mccp/internal/cryptounit"
	"mccp/internal/cuisa"
	"mccp/internal/firmware"
	"mccp/internal/picoblaze"
	"mccp/internal/sim"
)

// FIFOWords is the depth of each packet FIFO in 32-bit words. The paper
// uses 512 x 32 bits = one 2048-byte packet; the model adds headroom for
// the mode framing (IV/B0/A0/lengths/tag blocks) that travels in-band, so a
// full 2 KB payload plus its framing fits without deadlock.
const FIFOWords = 512 + 32

// Task is one cryptographic job dispatched by the Task Scheduler.
type Task struct {
	Mode firmware.Mode
	// HdrBlocks is the number of authenticated-only 16-byte blocks
	// (GCM AAD / CCM encoded-AAD), after formatting and padding.
	HdrBlocks uint8
	// DataBlocks is the number of payload 16-byte blocks including a final
	// partial block.
	DataBlocks uint8
	// LastMask is the byte mask of the final payload block
	// (bits.MaskForLen of the tail length; 0xFFFF when the block is full).
	LastMask uint16
	// TagMask is the byte mask of the authentication tag (decrypt modes).
	TagMask uint16
}

// Result is a completed task's outcome.
type Result struct {
	Code uint8 // firmware.ResultOK, ResultAuthFail, ResultBadMode
	// Cycles is the task's duration from start strobe to result strobe.
	Cycles sim.Time
}

// Core is one Cryptographic Core instance.
type Core struct {
	ID  int
	eng *sim.Engine

	In, Out *sim.WordFIFO
	Unit    *cryptounit.Unit
	CPU     *picoblaze.CPU

	// AES is the iterative AES engine occupying the reconfigurable region
	// by default. It is nil after reconfiguration to another engine.
	AES *aes.Core32

	// task state
	task         Task
	startPending bool
	busy         bool
	taskStart    sim.Time
	onResult     func(Result)

	// Stats accumulates per-core utilization counters.
	Stats Stats
}

// Stats counts core activity for the utilization and scheduling benches.
type Stats struct {
	Tasks      uint64
	AuthFails  uint64
	BusyCycles sim.Time
}

// New builds a core with the AES image loaded and an AES-128-capable unit.
// Inter-core mailboxes are wired by the enclosing MCCP via ConnectNeighbors.
func New(eng *sim.Engine, id int) *Core {
	c := &Core{
		ID:  id,
		eng: eng,
		In:  sim.NewWordFIFO(eng, FIFOWords),
		Out: sim.NewWordFIFO(eng, FIFOWords),
	}
	c.Unit = cryptounit.New(eng, c.In, c.Out)
	c.AES = aes.NewCore32()
	c.Unit.Cipher = c.AES
	c.CPU = picoblaze.New(eng, &coreBus{c}, firmware.ImageAES)
	// The unit's done line is the controller's wake input (custom HALT).
	c.Unit.OnDone = c.CPU.Wake
	c.CPU.Start()
	return c
}

// ConnectNeighbors wires this core's inter-core shift-register ports: out
// feeds the right neighbour, in receives from the left (a ring, matching
// the paper's shared-memory pairing of neighbouring cores).
func (c *Core) ConnectNeighbors(in, out *sim.Mailbox128) {
	c.Unit.MboxIn = in
	c.Unit.MboxOut = out
}

// Busy reports whether a task is in flight.
func (c *Core) Busy() bool { return c.busy }

// InstallAESKeys loads a key's schedule (the Key Scheduler's output,
// normally staged through the core's KeyCache) into the AES engine. Panics
// if the reconfigurable region does not currently hold the AES engine.
func (c *Core) InstallAESKeys(s *aes.Schedule) {
	if c.AES == nil {
		panic(fmt.Sprintf("cryptocore %d: AES engine not present (reconfigured?)", c.ID))
	}
	c.AES.Load(s)
}

// Start dispatches a task. The scheduler must have loaded the right round
// keys first. onResult fires when the firmware writes its result code.
func (c *Core) Start(t Task, onResult func(Result)) {
	if c.busy {
		panic(fmt.Sprintf("cryptocore %d: Start while busy", c.ID))
	}
	c.task = t
	c.busy = true
	c.startPending = true
	c.taskStart = c.eng.Now()
	c.onResult = onResult
	c.Stats.Tasks++
	c.CPU.Wake() // start strobe shares the controller's wake line
}

// coreBus adapts the Core to the controller's I/O bus. It is the "glue
// logic" between the PicoBlaze ports and the rest of the core.
type coreBus struct{ c *Core }

func (b *coreBus) In(port uint8) uint8 {
	c := b.c
	switch port {
	case firmware.InStatus:
		var v uint8
		if c.Unit.Busy() {
			v |= firmware.StatusBusy
		}
		if c.Unit.Equ() {
			v |= firmware.StatusEqu
		}
		if c.startPending {
			v |= firmware.StatusStart
		}
		return v
	case firmware.InMode:
		c.startPending = false // read-to-clear, acknowledges the start strobe
		return uint8(c.task.Mode)
	case firmware.InHdrBlks:
		return c.task.HdrBlocks
	case firmware.InDataBlks:
		return c.task.DataBlocks
	case firmware.InLastMaskLo:
		return uint8(c.task.LastMask)
	case firmware.InLastMaskHi:
		return uint8(c.task.LastMask >> 8)
	case firmware.InTagMaskLo:
		return uint8(c.task.TagMask)
	case firmware.InTagMaskHi:
		return uint8(c.task.TagMask >> 8)
	}
	return 0
}

func (b *coreBus) Out(port uint8, val uint8, done func()) {
	c := b.c
	switch port {
	case firmware.PortCU:
		// The unit's start/ack handshake: the controller's OUTPUT retires
		// when the unit latches the instruction. Issue may run done before
		// it returns, so nothing may follow it here.
		c.Unit.Issue(cuisa.Instr(val), done)
		return
	case firmware.PortMaskLo:
		c.Unit.SetMask(c.Unit.Mask()&0xFF00 | uint16(val))
	case firmware.PortMaskHi:
		c.Unit.SetMask(c.Unit.Mask()&0x00FF | uint16(val)<<8)
	case firmware.PortResult:
		c.finishTask(val)
	case firmware.PortFlush:
		c.Out.Reset()
	}
	done()
}

// OutAt takes a unit instruction ahead of its cycle while the unit is busy:
// the unit latches it when it falls idle, or at cycle at if that comes later
// (picoblaze.EarlyBus). An idle unit would only hold it until at, so the
// controller presents that one itself; the mask, result and flush strobes
// act at once on state others read, and are never taken early.
func (b *coreBus) OutAt(port uint8, val uint8, at sim.Time, done func()) bool {
	if port != firmware.PortCU || !b.c.Unit.Busy() {
		return false
	}
	b.c.Unit.IssueAt(cuisa.Instr(val), at, done)
	return true
}

// OutLoop hands a counted loop of unit instructions to the unit, which runs
// as much of it as it can ahead of the clock (cryptounit.Unit.RunAhead).
// Loops writing other ports are left to the controller.
func (b *coreBus) OutLoop(port uint8, body []uint8, iters int, at, step, edge sim.Time) (int, sim.Time) {
	if port != firmware.PortCU {
		return 0, 0
	}
	return b.c.Unit.RunAhead(body, iters, at, step, edge)
}

func (c *Core) finishTask(code uint8) {
	if !c.busy {
		// Result strobe with no task (e.g. unknown mode after a spurious
		// wake): ignore, the scheduler owns task lifecycle.
		return
	}
	c.busy = false
	dur := c.eng.Now() - c.taskStart
	c.Stats.BusyCycles += dur
	if code == firmware.ResultAuthFail {
		c.Stats.AuthFails++
	}
	if cb := c.onResult; cb != nil {
		c.onResult = nil
		cb(Result{Code: code, Cycles: dur})
	}
}

// PushWord writes one 32-bit word into the input FIFO, blocking the caller
// (callback-style) until space is available (the reference upload
// handshake, now hosted on sim.WordFIFO).
func (c *Core) PushWord(w uint32, then func()) { c.In.PushWord(w, then) }

// PopWord reads one word from the output FIFO, blocking until available.
func (c *Core) PopWord(then func(uint32)) { c.Out.PopWord(then) }
