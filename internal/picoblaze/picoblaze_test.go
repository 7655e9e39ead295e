package picoblaze

import (
	"reflect"
	"strings"
	"testing"

	"mccp/internal/sim"
)

// testBus records OUTPUTs and serves INPUTs from a map; port 0xFE delays
// acceptance by 10 cycles to exercise the stall path.
type testBus struct {
	eng    *sim.Engine
	inputs map[uint8]uint8
	outs   []struct {
		port, val uint8
		at        sim.Time
	}
}

func (b *testBus) In(port uint8) uint8 { return b.inputs[port] }

func (b *testBus) Out(port uint8, val uint8, done func()) {
	b.outs = append(b.outs, struct {
		port, val uint8
		at        sim.Time
	}{port, val, b.eng.Now()})
	if port == 0xFE {
		b.eng.After(10, done)
		return
	}
	done()
}

func run(t *testing.T, src string, inputs map[uint8]uint8) (*CPU, *testBus, *sim.Engine) {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	eng := sim.NewEngine()
	bus := &testBus{eng: eng, inputs: inputs}
	cpu := New(eng, bus, prog)
	cpu.Start()
	eng.Run()
	return cpu, bus, eng
}

func TestArithmeticAndFlags(t *testing.T) {
	cpu, _, _ := run(t, `
		LOAD s0, F0
		ADD  s0, 11      ; s0 = 0x01, carry set
		ADDCY s1, 00     ; s1 = 1 (carry in)
		LOAD s2, 05
		SUB  s2, 06      ; s2 = 0xFF, borrow set
		SUBCY s3, 00     ; s3 = 0xFF (borrow in)
		HALT
	`, nil)
	if !cpu.Halted() {
		t.Fatal("CPU should halt")
	}
	if cpu.Reg(0) != 0x01 || cpu.Reg(1) != 1 || cpu.Reg(2) != 0xFF || cpu.Reg(3) != 0xFF {
		t.Errorf("regs = %#x %#x %#x %#x", cpu.Reg(0), cpu.Reg(1), cpu.Reg(2), cpu.Reg(3))
	}
}

func TestLogicAndCompare(t *testing.T) {
	cpu, _, _ := run(t, `
		LOAD s0, AA
		AND  s0, 0F     ; 0x0A
		OR   s0, 30     ; 0x3A
		XOR  s0, 3A     ; 0x00, zero set
		JUMP NZ, bad
		LOAD s1, 07
		COMPARE s1, 08  ; carry (less-than)
		JUMP NC, bad
		COMPARE s1, 07  ; zero
		JUMP NZ, bad
		LOAD s2, 01
		JUMP done
	bad: LOAD s2, FF
	done: HALT
	`, nil)
	if cpu.Reg(2) != 1 {
		t.Errorf("flag path failed, s2 = %#x", cpu.Reg(2))
	}
}

func TestShiftsAndRotates(t *testing.T) {
	cpu, _, _ := run(t, `
		LOAD s0, 81
		SR0  s0         ; 0x40, carry=1
		SRA  s1         ; s1 = 0x80 (carry shifted in)
		LOAD s2, 81
		RL   s2         ; 0x03
		LOAD s3, 81
		RR   s3         ; 0xC0
		LOAD s4, 01
		SL0  s4         ; 0x02
		HALT
	`, nil)
	want := map[int]uint8{0: 0x40, 1: 0x80, 2: 0x03, 3: 0xC0, 4: 0x02}
	for r, v := range want {
		if cpu.Reg(r) != v {
			t.Errorf("s%d = %#02x, want %#02x", r, cpu.Reg(r), v)
		}
	}
}

func TestCallReturnNested(t *testing.T) {
	cpu, _, _ := run(t, `
		LOAD s0, 00
		CALL f1
		HALT
	f1: ADD s0, 01
		CALL f2
		ADD s0, 04
		RETURN
	f2: ADD s0, 02
		RETURN
	`, nil)
	if cpu.Reg(0) != 7 {
		t.Errorf("s0 = %d, want 7", cpu.Reg(0))
	}
}

func TestLoopTiming(t *testing.T) {
	// 10-iteration countdown: LOAD(1) + 10*(SUB+JUMP)(2 each) + HALT wake
	// charge is not incurred (no wake). Every instruction is 2 cycles.
	cpu, _, eng := run(t, `
		LOAD s0, 0A
	loop: SUB s0, 01
		JUMP NZ, loop
		HALT
	`, nil)
	if cpu.Reg(0) != 0 {
		t.Fatalf("s0 = %d", cpu.Reg(0))
	}
	// Instructions retired at cycles 2,4,...: LOAD, then 10x(SUB, JUMP),
	// then HALT parks at cycle 44 (its own charge is paid on wake).
	if got := cpu.Executed; got != 22 {
		t.Errorf("executed = %d, want 22 (incl. HALT)", got)
	}
	if eng.Now() != 44 {
		t.Errorf("halted at %d, want 44", eng.Now())
	}
}

func TestInputOutputPorts(t *testing.T) {
	cpu, bus, _ := run(t, `
		INPUT s0, 07
		ADD   s0, 01
		OUTPUT s0, 10
		LOAD  s1, 11
		OUTPUT s0, (s1)
		HALT
	`, map[uint8]uint8{0x07: 0x41})
	if cpu.Reg(0) != 0x42 {
		t.Fatalf("s0 = %#x", cpu.Reg(0))
	}
	if len(bus.outs) != 2 || bus.outs[0].port != 0x10 || bus.outs[0].val != 0x42 ||
		bus.outs[1].port != 0x11 {
		t.Errorf("outs = %+v", bus.outs)
	}
}

func TestOutputStall(t *testing.T) {
	// Port 0xFE delays acceptance by 10 cycles; the next instruction must
	// not retire until the stall resolves.
	cpu, bus, eng := run(t, `
		LOAD s0, 01
		OUTPUT s0, FE
		OUTPUT s0, 20
		HALT
	`, nil)
	_ = cpu
	if len(bus.outs) != 2 {
		t.Fatalf("outs = %d", len(bus.outs))
	}
	// t=2 LOAD retires; t=4 OUTPUT issues to 0xFE (stalls until 14);
	// second OUTPUT then needs 2 more cycles.
	if bus.outs[0].at != 4 || bus.outs[1].at != 16 {
		t.Errorf("out times = %d, %d; want 4, 16", bus.outs[0].at, bus.outs[1].at)
	}
	if eng.Now() != 18 {
		t.Errorf("end = %d, want 18", eng.Now())
	}
}

func TestHaltWake(t *testing.T) {
	prog := MustAssemble(`
		LOAD s0, 01
		HALT
		ADD s0, 01
		HALT
		ADD s0, 10
		HALT
	`)
	eng := sim.NewEngine()
	bus := &testBus{eng: eng}
	cpu := New(eng, bus, prog)
	cpu.Start()
	eng.Run()
	if !cpu.Halted() || cpu.Reg(0) != 1 {
		t.Fatalf("first halt: halted=%v s0=%#x", cpu.Halted(), cpu.Reg(0))
	}
	cpu.Wake()
	eng.Run()
	if cpu.Reg(0) != 2 {
		t.Fatalf("after first wake s0 = %#x", cpu.Reg(0))
	}
	// Wake on a running CPU is a no-op; wake again once halted.
	cpu.Wake()
	eng.Run()
	if cpu.Reg(0) != 0x12 {
		t.Fatalf("after second wake s0 = %#x", cpu.Reg(0))
	}
}

func TestConstantsAndDecimal(t *testing.T) {
	cpu, _, _ := run(t, `
		CONSTANT magic, 2A
		CONSTANT ten, 10'd
		LOAD s0, magic
		LOAD s1, ten
		HALT
	`, nil)
	if cpu.Reg(0) != 42 || cpu.Reg(1) != 10 {
		t.Errorf("s0=%d s1=%d", cpu.Reg(0), cpu.Reg(1))
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"FROB s0, 01",        // unknown mnemonic
		"LOAD s0",            // missing operand
		"JUMP nowhere",       // undefined label
		"LOAD sG, 01",        // bad register
		"LOAD s0, GG",        // bad constant
		"x: x: LOAD s0, 01",  // duplicate label... (same line)
		"JUMP Q, x\nx: HALT", // bad condition
		"CONSTANT s0, 01",    // constant shadows register
		"RETURNI MAYBE",      // bad RETURNI operand
		"ENABLE FOO",         // bad ENABLE
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestProgramTooLarge(t *testing.T) {
	src := strings.Repeat("LOAD s0, 01\n", IMemWords+1)
	if _, err := Assemble(src); err == nil {
		t.Error("oversized program accepted")
	}
}

func TestDisassembleRoundtrip(t *testing.T) {
	src := `
	start: LOAD s0, 1F
		ADD s0, s1
		INPUT s2, 03
		OUTPUT s2, (s3)
		SR0 s4
		RL s5
		JUMP NZ, start
		CALL C, start
		RETURN
		HALT
	`
	prog := MustAssemble(src)
	wants := []string{
		"LOAD s0, 1F", "ADD s0, s1", "INPUT s2, 03", "OUTPUT s2, (s3)",
		"SR0 s4", "RL s5", "JUMP NZ, 000", "CALL C, 000", "RETURN", "HALT",
	}
	for i, want := range wants {
		if got := Disassemble(prog[i]); got != want {
			t.Errorf("disasm[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestStackOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected stack overflow panic")
		}
	}()
	run(t, "boom: CALL boom", nil)
}

// recBus records every bus access with its cycle. INPUT values depend on the
// cycle, so an INPUT served early or late changes what the program writes.
// Port 0xFD is a device that stays busy 6 cycles after taking a write, holds
// the controller until it is idle, and takes a write ahead of its cycle
// while busy (EarlyBus) — the Cryptographic Unit's instruction port in
// miniature, and takes counted loops whole. Port 0xFE completes 10 cycles
// late, with no early path.
type recBus struct {
	eng       *sim.Engine
	log       []busAccess
	busyUntil sim.Time
	early     int
	looped    int // strobes taken through OutLoop
}

type busAccess struct {
	at        sim.Time
	in        bool
	port, val uint8
}

func (b *recBus) In(port uint8) uint8 {
	v := uint8(b.eng.Now()) ^ port
	b.log = append(b.log, busAccess{b.eng.Now(), true, port, v})
	return v
}

func (b *recBus) Out(port uint8, val uint8, done func()) {
	switch port {
	case 0xFD:
		b.eng.At(max(b.eng.Now(), b.busyUntil), func() { b.take(port, val, done) })
	case 0xFE:
		b.log = append(b.log, busAccess{b.eng.Now(), false, port, val})
		b.eng.After(10, done)
	default:
		b.log = append(b.log, busAccess{b.eng.Now(), false, port, val})
		done()
	}
}

func (b *recBus) OutAt(port uint8, val uint8, at sim.Time, done func()) bool {
	if port != 0xFD || b.eng.Now() >= b.busyUntil {
		return false
	}
	b.early++
	b.eng.At(max(at, b.busyUntil), func() { b.take(port, val, done) })
	return true
}

// OutLoop takes a loop's strobes to port 0xFD on the same rules, up to the
// RunUntil horizon.
func (b *recBus) OutLoop(port uint8, body []uint8, iters int, at, step, edge sim.Time) (n int, last sim.Time) {
	if port != 0xFD {
		return 0, 0
	}
	for strobe := at; n < iters*len(body); n++ {
		acc := max(strobe, b.busyUntil)
		if acc > b.eng.Horizon() {
			break
		}
		b.log = append(b.log, busAccess{acc, false, port, body[n%len(body)]})
		b.busyUntil, last = acc+6, acc
		if strobe = acc + step; (n+1)%len(body) == 0 {
			strobe = acc + edge
		}
	}
	b.looped += n
	return n, last
}

func (b *recBus) take(port, val uint8, done func()) {
	b.log = append(b.log, busAccess{b.eng.Now(), false, port, val})
	b.busyUntil = b.eng.Now() + 6
	done()
}

// TestLazyClockMatchesCompat runs a program that mixes register-only runs
// with every kind of bus access beside a ticker that fires every cycle — so
// Engine.TryAdvance never succeeds and every synchronisation takes the
// scheduled path — and requires the bus to see the reference model's
// accesses at the reference model's cycles, whole and cut into RunUntil
// slices that end in the middle of register-only runs.
func TestLazyClockMatchesCompat(t *testing.T) {
	prog := MustAssemble(`
		LOAD s0, 00
	loop: ADD s0, 01
		INPUT s1, 07
		XOR s2, s1
		OUTPUT s2, 10
		OUTPUT s0, FD      ; idle device
		SL0 s3
		OUTPUT s0, FD      ; busy: presented early, taken at the done edge
		ADD s3, 01
		ADD s3, 01
		ADD s3, 01
		ADD s3, 01
		OUTPUT s3, FD      ; busy now, idle before this retires
		OUTPUT s0, FE
		COMPARE s0, 05
		JUMP NZ, loop
		HALT
		INPUT s4, 08
		OUTPUT s4, 11
		HALT
	`)
	const wakeAt, end = 301, 400
	run := func(compat, noise bool, slice sim.Time) ([]busAccess, uint64, int) {
		eng := sim.NewEngine()
		eng.Compat = compat
		bus := &recBus{eng: eng}
		cpu := New(eng, bus, prog)
		cpu.Start()
		eng.At(wakeAt, cpu.Wake)
		if noise {
			var tk *sim.Ticker
			tk = eng.NewTicker(func() {
				if eng.Now() < end {
					tk.After(1)
				}
			})
			tk.After(1)
		}
		if slice == 0 {
			eng.Run()
		}
		for slice > 0 && eng.Now() < end {
			eng.RunUntil(eng.Now() + slice)
		}
		if !cpu.Halted() {
			t.Fatalf("compat=%v noise=%v slice=%d: program did not reach its last HALT", compat, noise, slice)
		}
		return bus.log, cpu.Executed, bus.early
	}
	ref, refExecuted, _ := run(true, false, 0)
	if len(ref) != 5*6+2 {
		t.Fatalf("reference run made %d bus accesses, want %d", len(ref), 5*6+2)
	}
	for _, noise := range []bool{false, true} {
		for _, slice := range []sim.Time{0, 7} {
			got, executed, early := run(false, noise, slice)
			if !reflect.DeepEqual(got, ref) || executed != refExecuted {
				t.Errorf("noise=%v slice=%d: %d instructions, bus saw\n%v\nreference: %d instructions,\n%v", noise, slice, executed, got, refExecuted, ref)
			}
			if early == 0 {
				t.Errorf("noise=%v slice=%d: no OUTPUT was presented early", noise, slice)
			}
			if c, n, _ := run(true, noise, slice); !reflect.DeepEqual(c, ref) || n != refExecuted {
				t.Errorf("noise=%v slice=%d: the reference path disagrees with itself", noise, slice)
			}
		}
	}
}

// TestCountedLoopMatchesCompat runs counted loops — one re-entered from an
// outer loop, one whose counter starts at 0 and so runs 256 times, one
// that writes its own counter and must not be offered — and requires the
// bus accesses, the instruction count, the registers and the flags of the
// reference model, whole and in RunUntil slices that cut loops apart.
func TestCountedLoopMatchesCompat(t *testing.T) {
	prog := MustAssemble(`
		LOAD s5, 03
	outer: LOAD sB, 05
		ADD s0, 01
	body: OUTPUT s0, FD
		OUTPUT s5, FD
		OUTPUT s0, FD
		SUB sB, 01
		JUMP NZ, body
		INPUT s1, 07
		SUB s5, 01
		JUMP NZ, outer
		LOAD sC, 00
	wrap: OUTPUT s1, FD
		SUB sC, 01
		JUMP NZ, wrap
		LOAD sD, 04
	self: OUTPUT sD, FD
		SUB sD, 01
		JUMP NZ, self
		HALT
	`)
	type result struct {
		log         []busAccess
		executed    uint64
		regs        [16]uint8
		zero, carry bool
	}
	run := func(compat, noise bool, slice sim.Time) (result, int) {
		eng := sim.NewEngine()
		eng.Compat = compat
		bus := &recBus{eng: eng}
		cpu := New(eng, bus, prog)
		cpu.Start()
		if noise {
			var tk *sim.Ticker
			tk = eng.NewTicker(func() {
				if eng.Now() < 3000 {
					tk.After(1)
				}
			})
			tk.After(1)
		}
		if slice == 0 {
			eng.Run()
		}
		for slice > 0 && !cpu.Halted() {
			eng.RunUntil(eng.Now() + slice)
		}
		r := result{log: bus.log, executed: cpu.Executed}
		for i := range r.regs {
			r.regs[i] = cpu.Reg(i)
		}
		r.zero, r.carry = cpu.Flags()
		return r, bus.looped
	}
	ref, _ := run(true, false, 0)
	if want := 3*5*3 + 3 + 256 + 4; len(ref.log) != want {
		t.Fatalf("reference run made %d bus accesses, want %d", len(ref.log), want)
	}
	for _, noise := range []bool{false, true} {
		for _, slice := range []sim.Time{0, 7, 50} {
			got, looped := run(false, noise, slice)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("noise=%v slice=%d: differs from the reference model\ngot  %+v\nwant %+v", noise, slice, got, ref)
			}
			if looped == 0 || looped > 3*5*3+256 {
				t.Errorf("noise=%v slice=%d: the bus took %d strobes through OutLoop", noise, slice, looped)
			}
		}
	}
}

// TestLazyClockStopsAtHorizon: a register-only loop never meets the engine,
// so the RunUntil horizon is what bounds it, and bounds it exactly.
func TestLazyClockStopsAtHorizon(t *testing.T) {
	prog := MustAssemble(`
	loop: ADD s0, 01
		JUMP loop
	`)
	for _, compat := range []bool{false, true} {
		eng := sim.NewEngine()
		eng.Compat = compat
		cpu := New(eng, &testBus{eng: eng}, prog)
		cpu.Start()
		for _, until := range []sim.Time{101, 102, 1000} {
			eng.RunUntil(until)
			if want := uint64(until / CyclesPerInstr); cpu.Executed != want || eng.Now() != until {
				t.Errorf("compat=%v: %d instructions retired at cycle %d after RunUntil(%d), want %d", compat, cpu.Executed, eng.Now(), until, want)
			}
		}
	}
}
