package cryptounit

import (
	"fmt"
	"reflect"
	"testing"

	"mccp/internal/aes"
	"mccp/internal/bits"
	"mccp/internal/cuisa"
	"mccp/internal/sim"
	"mccp/internal/whirlpool"
)

// seq issues instructions back-to-back, each from the done strobe of the one
// before (modeling a controller with zero fetch overhead). It returns the
// total cycle count.
func seq(t *testing.T, eng *sim.Engine, u *Unit, ins ...cuisa.Instr) sim.Time {
	t.Helper()
	start := eng.Now()
	i := 0
	u.OnDone = func() {
		if i++; i < len(ins) {
			u.Issue(ins[i], nil)
		}
	}
	u.Issue(ins[0], nil)
	eng.Run()
	u.OnDone = nil
	return eng.Now() - start
}

func newUnit() (*sim.Engine, *Unit) {
	eng := sim.NewEngine()
	in := sim.NewWordFIFO(eng, 520)
	out := sim.NewWordFIFO(eng, 520)
	u := New(eng, in, out)
	core := aes.NewCore32()
	core.LoadKeys(aes.Key128, aes.ExpandKey(make([]byte, 16)))
	u.Cipher = core
	return eng, u
}

func pushBlock(f *sim.WordFIFO, b bits.Block) {
	for i := 0; i < 4; i++ {
		if !f.TryPush(b.Word(i)) {
			panic("test FIFO full")
		}
	}
}

func popBlock(f *sim.WordFIFO) bits.Block {
	var w [4]uint32
	for i := range w {
		v, ok := f.TryPop()
		if !ok {
			panic("test FIFO empty")
		}
		w[i] = v
	}
	return bits.BlockFromWords(w)
}

func TestLoadStoreMoveData(t *testing.T) {
	eng, u := newUnit()
	want := bits.BlockFromHex("00112233445566778899aabbccddeeff")
	pushBlock(u.In, want)
	cycles := seq(t, eng, u, cuisa.Load(2), cuisa.Store(2))
	if got := popBlock(u.Out); got != want {
		t.Errorf("store = %s, want %s", got.Hex(), want.Hex())
	}
	if cycles != 2*SimpleLatency {
		t.Errorf("LOAD+STORE = %d cycles, want %d", cycles, 2*SimpleLatency)
	}
}

func TestLoadBlocksUntilDataArrives(t *testing.T) {
	eng, u := newUnit()
	want := bits.BlockFromHex("000102030405060708090a0b0c0d0e0f")
	done := sim.Time(0)
	u.OnDone = func() { done = eng.Now() }
	u.Issue(cuisa.Load(0), nil)
	// Words trickle in one per 10 cycles starting at t=5.
	for i := 0; i < 4; i++ {
		w := want.Word(i)
		eng.At(sim.Time(5+10*i), func() { u.In.TryPush(w) })
	}
	eng.Run()
	if u.Bank(0) != want {
		t.Errorf("bank = %s", u.Bank(0).Hex())
	}
	if done != 35+SimpleLatency {
		t.Errorf("done at %d, want %d (last word at 35 + latency)", done, 35+SimpleLatency)
	}
}

func TestXORMaskEquInc(t *testing.T) {
	eng, u := newUnit()
	a := bits.BlockFromHex("ffffffffffffffffffffffffffffffff")
	b := bits.BlockFromHex("0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f")
	u.SetBank(0, a)
	u.SetBank(1, b)
	u.SetMask(0xFF00) // keep first 8 bytes only
	seq(t, eng, u, cuisa.Xor(0, 1))
	if got := u.Bank(1).Hex(); got != "f0f0f0f0f0f0f0f00000000000000000" {
		t.Errorf("XOR = %s", got)
	}
	// EQU under a mask compares only unmasked bytes (truncated tags).
	u.SetBank(2, bits.BlockFromHex("f0f0f0f0f0f0f0f0deadbeefdeadbeef"))
	seq(t, eng, u, cuisa.Equ(1, 2))
	if !u.Equ() {
		t.Error("masked EQU should ignore the last 8 bytes")
	}
	u.SetMask(0xFFFF)
	seq(t, eng, u, cuisa.Equ(1, 2))
	if u.Equ() {
		t.Error("full EQU should see the difference")
	}
	// INC steps the low 16 bits by 1..4.
	u.SetBank(3, bits.Block{})
	seq(t, eng, u, cuisa.Inc(3, 1), cuisa.Inc(3, 4))
	if u.Bank(3)[15] != 5 {
		t.Errorf("INC total = %d, want 5", u.Bank(3)[15])
	}
}

func TestMovAndXorSelfZero(t *testing.T) {
	eng, u := newUnit()
	v := bits.BlockFromHex("00112233445566778899aabbccddeeff")
	u.SetBank(0, v)
	seq(t, eng, u, cuisa.Mov(0, 3))
	if u.Bank(3) != v {
		t.Error("MOV failed")
	}
	// XOR @A,@A always zeroes @A regardless of mask — firmware's way of
	// materializing the zero block for H = E_K(0).
	u.SetMask(0x00FF)
	seq(t, eng, u, cuisa.Xor(3, 3))
	if !u.Bank(3).IsZero() {
		t.Error("XOR self should zero the register")
	}
}

func TestSAESFAESSerializedTiming(t *testing.T) {
	eng, u := newUnit()
	pt := bits.BlockFromHex("00112233445566778899aabbccddeeff")
	u.SetBank(0, pt)
	cycles := seq(t, eng, u, cuisa.SAES(0), cuisa.FAES(1))
	// T_SAES + T_FAES = 49 for a 128-bit key: the paper's GCM loop bound.
	if cycles != 49 {
		t.Errorf("SAES;FAES = %d cycles, want 49", cycles)
	}
	want := aes.MustNew(make([]byte, 16)).Encrypt(pt)
	if u.Bank(1) != want {
		t.Errorf("FAES result = %s, want %s", u.Bank(1).Hex(), want.Hex())
	}
}

func TestSAESFAESKeySizeScaling(t *testing.T) {
	// 192/256-bit keys add 8/16 cycles to the pair (52+5, 60+5).
	for _, tc := range []struct {
		size aes.KeySize
		want sim.Time
	}{{aes.Key128, 49}, {aes.Key192, 57}, {aes.Key256, 65}} {
		eng := sim.NewEngine()
		u := New(eng, sim.NewWordFIFO(eng, 8), sim.NewWordFIFO(eng, 8))
		core := aes.NewCore32()
		core.LoadKeys(tc.size, aes.ExpandKey(make([]byte, int(tc.size))))
		u.Cipher = core
		got := seq(t, eng, u, cuisa.SAES(0), cuisa.FAES(1))
		if got != tc.want {
			t.Errorf("%v SAES;FAES = %d, want %d", tc.size, got, tc.want)
		}
	}
}

func TestBackgroundOverlapHidesForegroundWork(t *testing.T) {
	// SAES; 5 simple ops; FAES must still take 49 total: the simple ops
	// execute in the AES shadow. This is the mechanism behind Listing 1.
	eng, u := newUnit()
	cycles := seq(t, eng, u,
		cuisa.SAES(0),
		cuisa.Inc(1, 1), cuisa.Inc(1, 1), cuisa.Inc(1, 1), cuisa.Inc(1, 1), cuisa.Inc(1, 1),
		cuisa.FAES(2),
	)
	if cycles != 49 {
		t.Errorf("overlapped sequence = %d cycles, want 49", cycles)
	}
}

func TestSGFMFGFMTiming(t *testing.T) {
	eng, u := newUnit()
	h := bits.BlockFromHex("66e94bd4ef8a2c3b884cfa59ca342b2e")
	x := bits.BlockFromHex("0388dace60b6a392f328c2b971b2fe78")
	u.SetBank(0, h)
	u.SetBank(1, x)
	cycles := seq(t, eng, u, cuisa.LoadH(0), cuisa.SGFM(1), cuisa.FGFM(2))
	// LOADH(6) + SGFM start(2) + stall to 43 + finalize(5) = 6 + 43 + 5.
	if cycles != 6+43+5 {
		t.Errorf("LOADH;SGFM;FGFM = %d cycles, want %d", cycles, 6+43+5)
	}
	want := mulRef(x, h)
	if u.Bank(2) != want {
		t.Errorf("GHASH = %s, want %s", u.Bank(2).Hex(), want.Hex())
	}
}

// mulRef avoids importing ghash's internals twice; GHASH of a single block
// X with zeroed accumulator is X*H.
func mulRef(x, h bits.Block) bits.Block {
	var z bits.Block
	v := h
	for i := 0; i < 128; i++ {
		if x[i/8]&(0x80>>uint(i%8)) != 0 {
			z = z.XOR(v)
		}
		lsb := v[15] & 1
		var r bits.Block
		var carry byte
		for j := 0; j < 16; j++ {
			b := v[j]
			r[j] = b>>1 | carry
			carry = b << 7
		}
		if lsb != 0 {
			r[0] ^= 0xE1
		}
		v = r
	}
	return z
}

func TestSAESWhileBusyPanics(t *testing.T) {
	eng, u := newUnit()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on SAES while engine busy")
		}
	}()
	u.OnDone = func() { u.Issue(cuisa.SAES(1), nil) }
	u.Issue(cuisa.SAES(0), nil)
	eng.Run()
}

func TestIssueStallsWhileBusy(t *testing.T) {
	eng, u := newUnit()
	var accepted sim.Time
	u.Issue(cuisa.Inc(0, 1), nil)                             // busy until t=6
	u.Issue(cuisa.Inc(0, 1), func() { accepted = eng.Now() }) // must stall
	eng.Run()
	if accepted != SimpleLatency {
		t.Errorf("second issue accepted at %d, want %d", accepted, SimpleLatency)
	}
	if u.Bank(0)[15] != 2 {
		t.Error("both INCs must execute")
	}
}

func TestInterCoreShiftRegister(t *testing.T) {
	eng := sim.NewEngine()
	mb := sim.NewMailbox128(eng)
	// Sender core.
	us := New(eng, sim.NewWordFIFO(eng, 8), sim.NewWordFIFO(eng, 8))
	us.MboxOut = mb
	// Receiver core.
	ur := New(eng, sim.NewWordFIFO(eng, 8), sim.NewWordFIFO(eng, 8))
	ur.MboxIn = mb

	mac := bits.BlockFromHex("deadbeefdeadbeefdeadbeefdeadbeef")
	us.SetBank(0, mac)
	// Receiver blocks on SHIN first; sender SHOUTs 20 cycles later.
	var got bits.Block
	ur.OnDone = func() { got = ur.Bank(1) }
	ur.Issue(cuisa.ShIn(1), nil)
	eng.At(20, func() { us.Issue(cuisa.ShOut(0), nil) })
	eng.Run()
	if got != mac {
		t.Errorf("SHIN = %s, want %s", got.Hex(), mac.Hex())
	}
	if eng.Now() != 20+ShiftInLatency {
		t.Errorf("rendezvous completed at %d, want %d", eng.Now(), 20+ShiftInLatency)
	}
}

func TestStoreBlocksOnFullOutput(t *testing.T) {
	eng := sim.NewEngine()
	u := New(eng, sim.NewWordFIFO(eng, 8), sim.NewWordFIFO(eng, 4))
	core := aes.NewCore32()
	core.LoadKeys(aes.Key128, aes.ExpandKey(make([]byte, 16)))
	u.Cipher = core
	// Fill the 4-word output FIFO so STORE must wait.
	for i := 0; i < 4; i++ {
		u.Out.TryPush(uint32(i))
	}
	var done sim.Time
	u.OnDone = func() { done = eng.Now() }
	u.Issue(cuisa.Store(0), nil)
	// Drain one word at t=30: still not enough. Drain the rest at t=50.
	eng.At(30, func() { u.Out.TryPop() })
	eng.At(50, func() {
		for u.Out.Len() > 0 {
			u.Out.TryPop()
		}
	})
	eng.Run()
	if done != 50+SimpleLatency {
		t.Errorf("STORE done at %d, want %d", done, 50+SimpleLatency)
	}
	if u.Out.Len() != 4 {
		t.Errorf("output FIFO has %d words, want 4", u.Out.Len())
	}
}

func TestIssueCountAndTrace(t *testing.T) {
	eng, u := newUnit()
	var traced []cuisa.Instr
	u.Trace = func(_ sim.Time, in cuisa.Instr) { traced = append(traced, in) }
	seq(t, eng, u, cuisa.Inc(0, 1), cuisa.Xor(0, 1), cuisa.Inc(0, 1))
	if u.IssueCount[cuisa.OpINC] != 2 || u.IssueCount[cuisa.OpXOR] != 1 {
		t.Errorf("issue counts = %v", u.IssueCount)
	}
	if len(traced) != 3 {
		t.Errorf("traced %d instructions, want 3", len(traced))
	}
}

// handshakeLog drives one unit through a stalled issue while OnDone — the
// done strobe — issues the next instruction from inside complete, as
// bench's rungCryptoUnit does. It returns every acceptance and every
// onAccept in execution order, the issue counts and the engine events run.
//
// Re-entrancy is where fusion could go wrong: the instruction OnDone issues
// finds the unit idle with the waiting slot still taken, overtakes the
// waiting instruction as it does on the reference path, and that one must
// stay in its slot until the chain ends.
func handshakeLog(compat bool) (log []string, counts [16]uint64, events int) {
	eng := sim.NewEngine()
	eng.Compat = compat
	u := New(eng, sim.NewWordFIFO(eng, 16), sim.NewWordFIFO(eng, 16))
	note := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("%d %s", eng.Now(), what)) }
	}
	u.Trace = func(now sim.Time, in cuisa.Instr) { log = append(log, fmt.Sprintf("%d accept %v", now, in)) }
	instr := [2]cuisa.Instr{cuisa.Xor(0, 1), cuisa.Inc(1, 1)}
	left := 6
	u.OnDone = func() {
		if left == 0 {
			return
		}
		left--
		u.Issue(instr[left&1], note(fmt.Sprintf("onAccept chain%d", left)))
	}
	u.Issue(cuisa.Xor(2, 3), note("onAccept first"))
	u.Issue(cuisa.Mov(2, 3), note("onAccept stalled"))
	for eng.Step() {
		events++
	}
	return log, u.IssueCount, events
}

func TestOnDoneIssueWhileStalledMatchesCompat(t *testing.T) {
	fast, fastCounts, fastEvents := handshakeLog(false)
	ref, refCounts, refEvents := handshakeLog(true)
	if !reflect.DeepEqual(fast, ref) {
		t.Errorf("handshake order differs from the reference path:\nfast:   %q\ncompat: %q", fast, ref)
	}
	if fastCounts != refCounts {
		t.Errorf("IssueCount %v != reference %v", fastCounts, refCounts)
	}
	if last := "42 onAccept stalled"; len(ref) != 2*8 || ref[len(ref)-1] != last {
		t.Errorf("reference log: want 8 acceptances and 8 onAccepts ending in %q, got %q", last, ref)
	}
	if fastEvents >= refEvents {
		t.Errorf("fast path ran %d engine events, reference %d: nothing was fused", fastEvents, refEvents)
	}
}

func TestSecondWaitingInstructionPanics(t *testing.T) {
	_, u := newUnit()
	defer func() {
		if recover() == nil {
			t.Error("expected a panic: the instruction port holds one waiting instruction")
		}
	}()
	u.Issue(cuisa.Inc(0, 1), nil)
	u.Issue(cuisa.Inc(0, 1), nil)
	u.Issue(cuisa.Inc(0, 1), nil)
}

// TestIssueAtMatchesStrobeAtItsCycle presents an instruction ahead of its
// cycle, right after the one before it was accepted, and requires what a
// controller event at that cycle would have produced on the reference path:
// the same done strobes, acceptances and acknowledges at the same cycles in
// the same order — done before the acceptance it makes room for, the
// controller's wake input before its next instruction.
func TestIssueAtMatchesStrobeAtItsCycle(t *testing.T) {
	for _, tc := range []struct {
		name       string
		first      cuisa.Instr
		dataAt     sim.Time // when the input FIFO gets the block a LOAD waits for
		stamp      sim.Time
		wantAccept sim.Time
		// Fast path, beyond the FIFO push: ticks, plus a latch event when the
		// unit idles first, plus one at the stamp behind a LOAD parked on its
		// FIFO (nothing else would bring the clock to the strobe's cycle).
		wantEvents int
	}{
		{"done after the stamp", cuisa.Xor(0, 1), 0, 4, SimpleLatency, 2},
		{"done at the stamp", cuisa.Xor(0, 1), 0, SimpleLatency, SimpleLatency, 2},
		{"done before the stamp", cuisa.Xor(0, 1), 0, 9, 9, 3},
		{"behind a blocked LOAD", cuisa.Load(2), 20, 2, 20 + SimpleLatency, 4},
		{"blocked LOAD done before the stamp", cuisa.Load(2), 20, 40, 40, 5},
	} {
		run := func(compat bool) (log []string, events int) {
			eng, u := newUnit()
			eng.Compat = compat
			note := func(what string) func() {
				return func() { log = append(log, fmt.Sprintf("%d %s", eng.Now(), what)) }
			}
			u.Trace = func(now sim.Time, in cuisa.Instr) { log = append(log, fmt.Sprintf("%d accept %v", now, in)) }
			u.OnDone = note("done")
			if tc.first.Op() == cuisa.OpLOAD {
				eng.At(tc.dataAt, func() { u.In.TryPushBlock([4]uint32{1, 2, 3, 4}) })
				events--
			}
			u.Issue(tc.first, nil)
			if compat {
				eng.At(tc.stamp, func() { u.Issue(cuisa.Inc(1, 1), note("ack")) })
			} else {
				u.IssueAt(cuisa.Inc(1, 1), tc.stamp, note("ack"))
			}
			for eng.Step() {
				events++
			}
			return log, events
		}
		fast, events := run(false)
		ref, _ := run(true)
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s:\nfast:   %q\ncompat: %q", tc.name, fast, ref)
		}
		if want := fmt.Sprintf("%d accept %v", tc.wantAccept, cuisa.Inc(1, 1)); len(ref) != 5 || ref[2] != want {
			t.Errorf("%s: reference log %q, want %q third of five", tc.name, ref, want)
		}
		if events != tc.wantEvents {
			t.Errorf("%s: fast path ran %d engine events, want %d", tc.name, events, tc.wantEvents)
		}
	}
}

func TestStalledIssueChainMatchesCompat(t *testing.T) {
	// The controller's shape: each onAccept presents the next instruction
	// at once, so every issue but the first goes through the stall slot.
	// Alone on the engine, the fast path runs one event per instruction.
	prog := []cuisa.Instr{cuisa.Xor(0, 1), cuisa.SAES(0), cuisa.Inc(1, 1), cuisa.FAES(2), cuisa.Mov(2, 3), cuisa.SGFM(1), cuisa.FGFM(3)}
	run := func(compat bool) (at []sim.Time, counts [16]uint64, events int) {
		eng, u := newUnit()
		eng.Compat = compat
		var next func()
		next = func() {
			if i := len(at); i > 0 {
				at[i-1] = eng.Now()
			}
			if len(at) < len(prog) {
				at = append(at, 0)
				u.Issue(prog[len(at)-1], next)
			}
		}
		next()
		for eng.Step() {
			events++
		}
		return at, u.IssueCount, events
	}
	fast, fastCounts, fastEvents := run(false)
	ref, refCounts, refEvents := run(true)
	if !reflect.DeepEqual(fast, ref) || fastCounts != refCounts {
		t.Errorf("acceptance cycles %v counts %v, reference %v %v", fast, fastCounts, ref, refCounts)
	}
	if fastEvents != len(prog) || refEvents != 3*len(prog)-1 {
		t.Errorf("events: fast %d reference %d, want %d (one per instruction) and %d (tick, retry, accept)",
			fastEvents, refEvents, len(prog), 3*len(prog)-1)
	}
}

// BenchmarkIssueStalled is the Cryptographic Unit rung of the host-cost
// ladder: back-to-back simple instructions, each presented from the
// previous one's onAccept so that it waits in the stall slot for the done
// edge — the path every firmware instruction takes. One op is one
// instruction: acceptance, execution, completion and the retry of the next.
func BenchmarkIssueStalled(b *testing.B) {
	eng, u := newUnit()
	instr := [2]cuisa.Instr{cuisa.Xor(0, 1), cuisa.Inc(1, 1)}
	left := 0
	var next func()
	next = func() {
		if left > 0 {
			left--
			u.Issue(instr[left&1], next)
		}
	}
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	next()
	for eng.Step() {
		events++
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if got := u.IssueCount[cuisa.OpXOR] + u.IssueCount[cuisa.OpINC]; got != uint64(b.N) {
		b.Fatalf("%d instructions accepted, want %d", got, b.N)
	}
}

// driveLoop plays the controller of a counted loop: iters iterations of
// body, each instruction strobed 2 cycles after the one before was accepted
// and 6 after an iteration's last (its SUB and JUMP NZ). With runAhead it
// offers the rest of the loop to RunAhead at every iteration head, as the
// controller does, and strobes whatever that leaves itself.
func driveLoop(eng *sim.Engine, u *Unit, body []uint8, iters int, runAhead bool) {
	total, k := iters*len(body), 0
	next := func(last sim.Time) sim.Time {
		if k%len(body) == 0 {
			return last + 6
		}
		return last + 2
	}
	var present func(strobe sim.Time)
	acked := func() { present(next(eng.Now())) }
	present = func(strobe sim.Time) {
		for k < total {
			if runAhead && k%len(body) == 0 {
				if n, last := u.RunAhead(body, (total-k)/len(body), strobe, 2, 6); n > 0 {
					k += n
					strobe = next(last)
					continue
				}
			}
			in := cuisa.Instr(body[k%len(body)])
			k++
			eng.At(strobe, func() { u.Issue(in, acked) })
			return
		}
	}
	present(eng.Now())
}

// TestRunAheadIntoFillingOutputFIFO runs a LOAD/XOR/STORE loop into a
// two-block output FIFO that a consumer drains one word every 7 cycles, so
// runs ahead stop at a STORE without space and resume. The acceptances and
// the words the consumer sees, with their cycles, must match the reference
// path, whole and in RunUntil slices.
func TestRunAheadIntoFillingOutputFIFO(t *testing.T) {
	const blocks = 12
	body := []uint8{uint8(cuisa.Load(0)), uint8(cuisa.Xor(0, 1)), uint8(cuisa.Store(1))}
	type popped struct {
		at sim.Time
		w  uint32
	}
	run := func(compat, runAhead bool, slice sim.Time) (log []string, got []popped, ahead int) {
		eng := sim.NewEngine()
		eng.Compat = compat
		u := New(eng, sim.NewWordFIFO(eng, 4*blocks), sim.NewWordFIFO(eng, 8))
		for i := 0; i < blocks; i++ {
			pushBlock(u.In, bits.BlockFromWords([4]uint32{uint32(i), 1, 2, 3}))
		}
		u.Trace = func(now sim.Time, in cuisa.Instr) {
			log = append(log, fmt.Sprintf("%d %v", now, in))
			if now > eng.Now() {
				ahead++
			}
		}
		var drain *sim.Ticker
		drain = eng.NewTicker(func() {
			if w, ok := u.Out.TryPop(); ok {
				got = append(got, popped{eng.Now(), w})
			}
			if len(got) < 4*blocks {
				drain.After(7)
			}
		})
		drain.After(7)
		driveLoop(eng, u, body, blocks, runAhead)
		if slice == 0 {
			eng.Run()
		}
		for slice > 0 && eng.Pending() > 0 {
			eng.RunUntil(eng.Now() + slice)
		}
		return log, got, ahead
	}
	ref, refOut, _ := run(true, false, 0)
	if len(ref) != 3*blocks || len(refOut) != 4*blocks {
		t.Fatalf("reference run: %d acceptances, %d words out", len(ref), len(refOut))
	}
	for _, slice := range []sim.Time{0, 5, 29} {
		log, out, ahead := run(false, true, slice)
		if !reflect.DeepEqual(log, ref) || !reflect.DeepEqual(out, refOut) {
			t.Errorf("slice %d: run ahead differs from the reference path:\n%q\n%v\nreference:\n%q\n%v", slice, log, out, ref, refOut)
		}
		if ahead == 0 || ahead > 3*blocks-4 {
			t.Errorf("slice %d: %d of %d acceptances ran ahead; want some, and some STOREs left to the event path", slice, ahead, 3*blocks)
		}
	}
}

// TestRunAheadSettlesOnlyTrueRepeats runs loops whose first iterations
// differ from their steady state, so a periodic step taken from the wrong
// pair of heads would misplace cycles: the GHASH core or the cipher engine
// stalls the body from the second iteration on (the unit's own idle cycle
// is the same at the first two heads), or the input is stored ahead of the
// loop but becomes ready more slowly than one or two LOADs per iteration
// take it, so a stretch must stop at a block stored but not ready.
// Acceptances, the output with its cycles and the bank must match the
// reference path, whole and in RunUntil slices, and the unsliced run ahead
// must settle part of the loop.
func TestRunAheadSettlesOnlyTrueRepeats(t *testing.T) {
	// Forty blocks stored at once: ten ready now, then one every 24 cycles
	// from cycle 18, which the loop overtakes part way.
	slow := func(f *sim.WordFIFO) {
		w := make([]uint32, 4*40)
		for i := range w {
			w[i] = uint32(i) * 0x9E3779B9
		}
		f.BulkPush(w[:40], 0, 0)
		f.BulkPush(w[40:], 0, 6)
	}
	for _, tc := range []struct {
		name   string
		primed bool // SAES R0 first; the loop starts at its done strobe
		body   []cuisa.Instr
		iters  int
		input  func(*sim.WordFIFO)
	}{
		{"GHASH-bound", false, []cuisa.Instr{cuisa.SGFM(0), cuisa.Xor(1, 2)}, 12, nil},
		{"cipher-bound", true, []cuisa.Instr{cuisa.FAES(1), cuisa.SAES(0), cuisa.Xor(1, 2), cuisa.Inc(0, 1)}, 12, nil},
		{"slow input", false, []cuisa.Instr{cuisa.Load(0), cuisa.Xor(0, 1), cuisa.Store(1)}, 40, slow},
		{"slow input, two LOADs", false, []cuisa.Instr{cuisa.Load(0), cuisa.Load(2), cuisa.Xor(0, 2), cuisa.Store(2)}, 20, slow},
	} {
		body := make([]uint8, len(tc.body))
		stores := 0
		for i, in := range tc.body {
			body[i] = uint8(in)
			if in.Op() == cuisa.OpSTORE {
				stores++
			}
		}
		type popped struct {
			at sim.Time
			w  uint32
		}
		run := func(compat, runAhead bool, slice sim.Time) (log []string, out []popped, bank [4]bits.Block, settled uint64) {
			eng, u := newUnit()
			eng.Compat = compat
			u.GHash.LoadH(bits.Block{1: 0x5A})
			if tc.input != nil {
				tc.input(u.In)
			}
			u.Trace = func(now sim.Time, in cuisa.Instr) { log = append(log, fmt.Sprintf("%d %v", now, in)) }
			var drain *sim.Ticker
			drain = eng.NewTicker(func() {
				if w, ok := u.Out.TryPop(); ok {
					out = append(out, popped{eng.Now(), w})
				}
				if len(out) < 4*stores*tc.iters {
					drain.After(3)
				}
			})
			drain.After(3)
			if tc.primed {
				u.OnDone = func() {
					u.OnDone = nil
					driveLoop(eng, u, body, tc.iters, runAhead)
				}
				u.Issue(cuisa.SAES(0), nil)
			} else {
				driveLoop(eng, u, body, tc.iters, runAhead)
			}
			if slice == 0 {
				eng.Run()
			}
			for slice > 0 && eng.Pending() > 0 {
				eng.RunUntil(eng.Now() + slice)
			}
			for r := range bank {
				bank[r] = u.Bank(r)
			}
			return log, out, bank, u.Settled
		}
		refLog, refOut, refBank, _ := run(true, false, 0)
		want := len(body) * tc.iters
		if tc.primed {
			want++
		}
		if len(refLog) != want {
			t.Fatalf("%s: reference run accepted %d instructions", tc.name, len(refLog))
		}
		for _, slice := range []sim.Time{0, 7, 61} {
			log, out, bank, settled := run(false, true, slice)
			if !reflect.DeepEqual(log, refLog) || !reflect.DeepEqual(out, refOut) || bank != refBank {
				t.Fatalf("%s, slice %d: run ahead differs from the reference path:\n%q\n%v\nreference:\n%q\n%v", tc.name, slice, log, out, refLog, refOut)
			}
			if slice == 0 && settled == 0 {
				t.Errorf("%s: nothing settled", tc.name)
			}
		}
	}
}

// TestRunAheadRefusesSharedAndChunkBodies: a body that shifts through the
// inter-core mailbox (shared with a neighbour core) or finalizes on a
// ChunkReader engine is never run ahead, and neither is any body under
// Compat; a ChunkReader engine alone does not refuse a body without FAES.
func TestRunAheadRefusesSharedAndChunkBodies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    []cuisa.Instr
		whirl   bool
		compat  bool
		refused bool
	}{
		{"SHOUT", []cuisa.Instr{cuisa.Xor(0, 1), cuisa.ShOut(1)}, false, false, true},
		{"SHIN", []cuisa.Instr{cuisa.ShIn(2), cuisa.Xor(2, 3)}, false, false, true},
		{"FAES on a ChunkReader", []cuisa.Instr{cuisa.Xor(0, 1), cuisa.FAES(0)}, true, false, true},
		{"Compat", []cuisa.Instr{cuisa.Xor(0, 1), cuisa.Inc(1, 1)}, false, true, true},
		{"SAES on a ChunkReader", []cuisa.Instr{cuisa.Xor(0, 1), cuisa.SAES(1)}, true, false, false},
	} {
		eng, u := newUnit()
		eng.Compat = tc.compat
		if tc.whirl {
			u.Cipher = whirlpool.NewEngine()
		}
		body := make([]uint8, len(tc.body))
		for i, in := range tc.body {
			body[i] = uint8(in)
		}
		n, _ := u.RunAhead(body, 3, 0, 2, 6)
		var issued uint64
		for _, c := range u.IssueCount {
			issued += c
		}
		if refused := n == 0 && issued == 0 && !u.Busy(); refused != tc.refused {
			t.Errorf("%s: RunAhead took %d strobes (refusal wanted: %v)", tc.name, n, tc.refused)
		}
		eng.Run()
	}
}

// regModel is the byte-at-a-time reference for the bank-register
// instructions: byte-masked XOR and compare (mask bit 15 keeps byte 0), a
// 16-bit wrapping increment of bytes 14-15, and 128-bit values moved as
// four 32-bit words, most significant first.
type regModel struct {
	bank [4]bits.Block
	mask uint16
	equ  bool
	out  []uint32
}

func (m *regModel) keeps(i int) bool { return m.mask&(1<<(15-i)) != 0 }

func (m *regModel) exec(in cuisa.Instr, load func() [4]uint32) {
	a, b := in.A(), in.B()
	switch in.Op() {
	case cuisa.OpXOR:
		for i := range m.bank[b] {
			x := m.bank[a][i] ^ m.bank[b][i]
			if !m.keeps(i) {
				x = 0
			}
			m.bank[b][i] = x
		}
	case cuisa.OpEQU:
		m.equ = true
		for i := range m.bank[a] {
			if m.keeps(i) && m.bank[a][i] != m.bank[b][i] {
				m.equ = false
			}
		}
	case cuisa.OpINC:
		r := &m.bank[a]
		v := uint16(r[14])<<8 | uint16(r[15]) + uint16(b) + 1
		r[14], r[15] = byte(v>>8), byte(v)
	case cuisa.OpMOV:
		m.bank[b] = m.bank[a]
	case cuisa.OpLOAD:
		for k, w := range load() {
			for j := 0; j < 4; j++ {
				m.bank[a][4*k+j] = byte(w >> (24 - 8*j))
			}
		}
	case cuisa.OpSTORE:
		for k := 0; k < 4; k++ {
			var w uint32
			for j := 0; j < 4; j++ {
				w = w<<8 | uint32(m.bank[a][4*k+j])
			}
			m.out = append(m.out, w)
		}
	}
}

// regOps are the instructions FuzzUnitRegisters draws from. A program byte
// is an instruction; one with another opcode becomes regOps[opcode%6].
var regOps = [...]cuisa.Op{cuisa.OpXOR, cuisa.OpEQU, cuisa.OpINC, cuisa.OpMOV, cuisa.OpLOAD, cuisa.OpSTORE}

func regOp(v byte) cuisa.Instr {
	in := cuisa.Instr(v)
	for _, op := range regOps {
		if in.Op() == op {
			return in
		}
	}
	return cuisa.New(regOps[int(in.Op())%len(regOps)], in.A(), in.B())
}

// FuzzUnitRegisters runs a short program of XOR, EQU, INC, MOV, LOAD and
// STORE on fuzzed bank contents under a fuzzed mask, once instruction by
// instruction on the event path, once as a run ahead, and once as a run
// ahead of four iterations of the program's first 32 instructions (which
// settles from the third iteration on if it is at most 16 long), and holds
// the bank, Equ() and the Out FIFO's words to regModel.
func FuzzUnitRegisters(f *testing.F) {
	regs := make([]byte, 4*bits.BlockBytes)
	for i := range regs {
		regs[i] = byte(i*151 + 7)
	}
	// Every opcode, on every register, with every INC delta.
	var all []byte
	for _, op := range regOps {
		for ab := uint8(0); ab < 16; ab++ {
			all = append(all, byte(cuisa.New(op, ab>>2, ab&3)))
		}
	}
	masks := []uint16{0x0000, 0xFFFF}
	for n := 1; n <= 15; n++ {
		masks = append(masks, bits.MaskForLen(n))
	}
	// R1 is R0 but for byte 12: EQU R0, R1 holds under MaskForLen(n <= 12).
	near := append([]byte(nil), regs...)
	copy(near[16:32], near[:16])
	near[16+12] ^= 0x40
	for _, m := range masks {
		f.Add(regs, m, all)
		f.Add(near, m, []byte{byte(cuisa.Equ(0, 1))})
	}
	// INC across 0xFFFF: the carry stays out of byte 13.
	carry := append([]byte(nil), regs...)
	carry[13], carry[14], carry[15] = 0x12, 0xFF, 0xFE
	f.Add(carry, uint16(0xFFFF), []byte{
		byte(cuisa.Inc(0, 1)), byte(cuisa.Inc(0, 1)), byte(cuisa.Store(0)),
		byte(cuisa.Inc(0, 4)), byte(cuisa.Equ(0, 1)),
	})
	// A counted loop's body: LOAD, XOR, STORE, INC.
	f.Add(regs, uint16(0xFFFF), []byte{
		byte(cuisa.Load(0)), byte(cuisa.Xor(0, 1)), byte(cuisa.Store(1)), byte(cuisa.Inc(2, 1)),
	})

	f.Fuzz(func(t *testing.T, regs []byte, mask uint16, prog []byte) {
		if len(prog) > 128 { // 128 STOREs or LOADs fit the FIFOs
			prog = prog[:128]
		}
		body := make([]uint8, len(prog))
		for i, v := range prog {
			body[i] = uint8(regOp(v))
		}
		var start [4]bits.Block
		for r := range start {
			copy(start[r][:], regs[min(len(regs), 16*r):])
		}
		// The k-th LOAD reads block k of the input stream.
		input := func(k int) (w [4]uint32) {
			for i := range w {
				w[i] = uint32(k+1)*0x9E3779B9 ^ uint32(i)*0x01000193 ^ uint32(mask)
			}
			return w
		}
		const loops = 4
		looped := body[:min(len(body), 128/loops)]
		for _, leg := range []struct {
			name  string
			body  []uint8
			iters int
		}{{"event path", body, 1}, {"run ahead", body, 1}, {"looped run ahead", looped, loops}} {
			want := regModel{bank: start, mask: mask}
			loaded := 0
			for range leg.iters {
				for _, v := range leg.body {
					want.exec(cuisa.Instr(v), func() [4]uint32 { loaded++; return input(loaded - 1) })
				}
			}

			eng, u := newUnit()
			for r, v := range start {
				u.SetBank(r, v)
			}
			u.SetMask(mask)
			for k := 0; k < loaded; k++ {
				w := input(k)
				u.In.BulkPush(w[:], 0, 0)
			}
			if len(leg.body) > 0 {
				if leg.name == "event path" {
					ins := make([]cuisa.Instr, len(leg.body))
					for i, v := range leg.body {
						ins[i] = cuisa.Instr(v)
					}
					seq(t, eng, u, ins...)
				} else {
					if n, _ := u.RunAhead(leg.body, leg.iters, 0, 1, 1); n != leg.iters*len(leg.body) {
						t.Fatalf("%s took %d of %d instructions", leg.name, n, leg.iters*len(leg.body))
					}
					eng.Run()
				}
			}
			if settles := leg.iters > 2 && len(leg.body) > 0 && len(leg.body) <= maxSettledBody; settles != (u.Settled > 0) {
				t.Fatalf("%s: %d of %d instructions settled (program % x)", leg.name, u.Settled, leg.iters*len(leg.body), leg.body)
			}
			for r := range want.bank {
				if got := u.Bank(r); got != want.bank[r] {
					t.Fatalf("%s: R%d = %s, model %s (mask %#04x, program % x)", leg.name, r, got.Hex(), want.bank[r].Hex(), mask, leg.body)
				}
			}
			if u.Equ() != want.equ {
				t.Fatalf("%s: Equ() = %v, model %v (mask %#04x, program % x)", leg.name, u.Equ(), want.equ, mask, leg.body)
			}
			var out []uint32
			for {
				w, ok := u.Out.TryPop()
				if !ok {
					break
				}
				out = append(out, w)
			}
			if !reflect.DeepEqual(out, want.out) && len(out)+len(want.out) > 0 {
				t.Fatalf("%s: stored words %08x, model %08x", leg.name, out, want.out)
			}
		}
	})
}
