package cryptocore_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mccp/internal/aes"
	"mccp/internal/bits"
	"mccp/internal/cryptocore"
	"mccp/internal/firmware"
	"mccp/internal/ghash"
	"mccp/internal/modes"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

func newTestCore(key []byte) (*sim.Engine, *cryptocore.Core) {
	eng := sim.NewEngine()
	c := cryptocore.New(eng, 0)
	c.InstallAESKeys(aes.MustNewSchedule(key))
	eng.Run() // reach the idle HALT
	return eng, c
}

func pushFrame(c *cryptocore.Core, f radio.Frame) {
	for _, b := range f.In {
		for i := 0; i < 4; i++ {
			if !c.In.TryPush(b.Word(i)) {
				panic("test: input FIFO overflow")
			}
		}
	}
}

func drain(c *cryptocore.Core) []byte {
	var out []byte
	for c.Out.Len() > 0 {
		w, _ := c.Out.TryPop()
		out = append(out, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return out
}

// runFrame executes one task on a single core and returns the raw output
// FIFO contents, the result code and the task duration in cycles.
func runFrame(t *testing.T, eng *sim.Engine, c *cryptocore.Core, f radio.Frame) ([]byte, uint8, sim.Time) {
	t.Helper()
	pushFrame(c, f)
	var res cryptocore.Result
	done := false
	c.Start(f.Task, func(r cryptocore.Result) { res = r; done = true })
	eng.Run()
	if !done {
		t.Fatalf("task %v did not complete (simulation deadlock, pc=%#x)", f.Task.Mode, c.CPU.PC())
	}
	return drain(c), res.Code, res.Cycles
}

func TestGCMEncryptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kl := range []int{16, 24, 32} {
		for _, n := range []int{0, 1, 15, 16, 17, 100, 256, 2048} {
			for _, aadLen := range []int{0, 8, 16, 40} {
				key := make([]byte, kl)
				nonce := make([]byte, 12)
				payload := make([]byte, n)
				aadBuf := make([]byte, aadLen)
				rng.Read(key)
				rng.Read(nonce)
				rng.Read(payload)
				rng.Read(aadBuf)

				eng, c := newTestCore(key)
				f, err := radio.FrameGCMEnc(nonce, aadBuf, payload)
				if err != nil {
					t.Fatal(err)
				}
				out, code, _ := runFrame(t, eng, c, f)
				if code != firmware.ResultOK {
					t.Fatalf("result code %d", code)
				}
				ref := (&modes.GCM{C: aes.MustNew(key), Mul: mulRef}).Seal(nonce, aadBuf, payload)
				ct, tag := ref[:n], ref[n:]

				nb := (n + 15) / 16
				gotCT := out[:16*nb]
				gotTag := out[16*nb : 16*nb+16]
				// Firmware masks the partial final block, so the padded
				// ciphertext is the zero-padded reference ciphertext.
				wantCT := bits.Flatten(bits.PadBlocks(ct))
				if !bytes.Equal(gotCT, wantCT) {
					t.Fatalf("kl=%d n=%d aad=%d: CT mismatch\n got %x\nwant %x", kl, n, aadLen, gotCT, wantCT)
				}
				if !bytes.Equal(gotTag, tag) {
					t.Fatalf("kl=%d n=%d aad=%d: TAG mismatch\n got %x\nwant %x", kl, n, aadLen, gotTag, tag)
				}
			}
		}
	}
}

// mulRef lets the reference GCM reuse the production GHASH multiplier.
func mulRef(x, y bits.Block) bits.Block {
	return ghash.Mul(x, y)
}

func TestGCMDecryptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 16, 33, 500, 2048} {
		key := make([]byte, 16)
		nonce := make([]byte, 12)
		payload := make([]byte, n)
		aadBuf := make([]byte, 24)
		rng.Read(key)
		rng.Read(nonce)
		rng.Read(payload)
		rng.Read(aadBuf)

		sealed := (&modes.GCM{C: aes.MustNew(key), Mul: mulRef}).Seal(nonce, aadBuf, payload)
		ct, tag := sealed[:n], sealed[n:]

		eng, c := newTestCore(key)
		f, err := radio.FrameGCMDec(nonce, aadBuf, ct, tag)
		if err != nil {
			t.Fatal(err)
		}
		out, code, _ := runFrame(t, eng, c, f)
		if code != firmware.ResultOK {
			t.Fatalf("n=%d: auth failed on valid packet", n)
		}
		if !bytes.Equal(out[:n], payload) {
			t.Fatalf("n=%d: plaintext mismatch", n)
		}
	}
}

func TestGCMDecryptRejectsTamper(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 12)
	payload := []byte("attack at dawn -- multi-channel radio packet")
	sealed := (&modes.GCM{C: aes.MustNew(key), Mul: mulRef}).Seal(nonce, nil, payload)
	ct, tag := sealed[:len(payload)], sealed[len(payload):]

	// Corrupt one ciphertext byte.
	badCT := append([]byte(nil), ct...)
	badCT[3] ^= 1
	eng, c := newTestCore(key)
	f, _ := radio.FrameGCMDec(nonce, nil, badCT, tag)
	out, code, _ := runFrame(t, eng, c, f)
	if code != firmware.ResultAuthFail {
		t.Fatalf("result = %d, want AUTH_FAIL", code)
	}
	// The paper: "output FIFO is re-initialized if plaintext does not match
	// the authentication tag" — no unauthenticated plaintext may leak.
	if len(out) != 0 {
		t.Fatalf("output FIFO leaked %d bytes after auth failure", len(out))
	}

	// Corrupt the tag.
	badTag := append([]byte(nil), tag...)
	badTag[0] ^= 0x80
	eng2, c2 := newTestCore(key)
	f2, _ := radio.FrameGCMDec(nonce, nil, ct, badTag)
	out2, code2, _ := runFrame(t, eng2, c2, f2)
	if code2 != firmware.ResultAuthFail || len(out2) != 0 {
		t.Fatalf("tag tamper: code=%d leaked=%d", code2, len(out2))
	}
}

func TestCCMEncryptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, kl := range []int{16, 24, 32} {
		for _, n := range []int{0, 1, 16, 31, 200, 2048} {
			for _, aadLen := range []int{0, 11, 30} {
				key := make([]byte, kl)
				nonce := make([]byte, 13)
				payload := make([]byte, n)
				aadBuf := make([]byte, aadLen)
				rng.Read(key)
				rng.Read(nonce)
				rng.Read(payload)
				rng.Read(aadBuf)
				const tagLen = 8

				eng, c := newTestCore(key)
				f, err := radio.FrameCCMEnc(nonce, aadBuf, payload, tagLen)
				if err != nil {
					t.Fatal(err)
				}
				out, code, _ := runFrame(t, eng, c, f)
				if code != firmware.ResultOK {
					t.Fatalf("result code %d", code)
				}
				ref, err := modes.CCMSeal(aes.MustNew(key), nonce, aadBuf, payload, tagLen)
				if err != nil {
					t.Fatal(err)
				}
				ct, tag := ref[:n], ref[n:]
				nb := (n + 15) / 16
				if !bytes.Equal(out[:16*nb], bits.Flatten(bits.PadBlocks(ct))) {
					t.Fatalf("kl=%d n=%d aad=%d: CT mismatch", kl, n, aadLen)
				}
				if !bytes.Equal(out[16*nb:16*nb+tagLen], tag) {
					t.Fatalf("kl=%d n=%d aad=%d: TAG mismatch\n got %x\nwant %x",
						kl, n, aadLen, out[16*nb:16*nb+16], tag)
				}
			}
		}
	}
}

func TestCCMDecryptMatchesReferenceAndRejectsTamper(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 16, 77, 1024} {
		key := make([]byte, 16)
		nonce := make([]byte, 13)
		payload := make([]byte, n)
		aadBuf := make([]byte, 19)
		rng.Read(key)
		rng.Read(nonce)
		rng.Read(payload)
		rng.Read(aadBuf)
		const tagLen = 12

		sealed, err := modes.CCMSeal(aes.MustNew(key), nonce, aadBuf, payload, tagLen)
		if err != nil {
			t.Fatal(err)
		}
		ct, tag := sealed[:n], sealed[n:]

		eng, c := newTestCore(key)
		f, err := radio.FrameCCMDec(nonce, aadBuf, ct, tag, tagLen)
		if err != nil {
			t.Fatal(err)
		}
		out, code, _ := runFrame(t, eng, c, f)
		if code != firmware.ResultOK {
			t.Fatalf("n=%d: auth failed on valid packet", n)
		}
		if !bytes.Equal(out[:n], payload) {
			t.Fatalf("n=%d: plaintext mismatch", n)
		}

		// Tampered ciphertext must flush and fail.
		badCT := append([]byte(nil), ct...)
		badCT[n/2] ^= 4
		eng2, c2 := newTestCore(key)
		f2, _ := radio.FrameCCMDec(nonce, aadBuf, badCT, tag, tagLen)
		out2, code2, _ := runFrame(t, eng2, c2, f2)
		if code2 != firmware.ResultAuthFail || len(out2) != 0 {
			t.Fatalf("n=%d tamper: code=%d leaked=%d", n, code2, len(out2))
		}
	}
}

func TestCTRMatchesReferenceAndInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	key := make([]byte, 16)
	rng.Read(key)
	var icb bits.Block
	rng.Read(icb[:])
	icb[14], icb[15] = 0, 0 // stay within the 16-bit incrementer's range
	data := make([]byte, 333)
	rng.Read(data)

	eng, c := newTestCore(key)
	f, err := radio.FrameCTR(icb, data)
	if err != nil {
		t.Fatal(err)
	}
	out, code, _ := runFrame(t, eng, c, f)
	if code != firmware.ResultOK {
		t.Fatalf("result code %d", code)
	}
	want := modes.CTR(aes.MustNew(key), icb, data)
	if !bytes.Equal(out[:len(data)], want) {
		t.Fatal("CTR output mismatch")
	}

	// Running the output back through CTR recovers the input.
	eng2, c2 := newTestCore(key)
	f2, _ := radio.FrameCTR(icb, out[:len(data)])
	out2, _, _ := runFrame(t, eng2, c2, f2)
	if !bytes.Equal(out2[:len(data)], data) {
		t.Fatal("CTR involution failed")
	}
}

func TestCBCMACMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	key := make([]byte, 16)
	rng.Read(key)
	blocks := make([]bits.Block, 9)
	for i := range blocks {
		rng.Read(blocks[i][:])
	}
	eng, c := newTestCore(key)
	f, err := radio.FrameCBCMAC(blocks)
	if err != nil {
		t.Fatal(err)
	}
	out, code, _ := runFrame(t, eng, c, f)
	if code != firmware.ResultOK {
		t.Fatalf("result code %d", code)
	}
	want := modes.CBCMAC(aes.MustNew(key), blocks)
	if !bytes.Equal(out[:16], want[:]) {
		t.Fatalf("MAC mismatch: got %x want %s", out[:16], want.Hex())
	}
}

// TestGCMLoopSteadyState measures the firmware's per-block cost and checks
// it sits between the paper's theoretical bound (49 cycles) and the
// 2 KB-packet figure implied by Table II (~56 cycles/block at 437 Mbps).
func TestGCMLoopSteadyState(t *testing.T) {
	key := make([]byte, 16)
	run := func(blocks int) sim.Time {
		eng, c := newTestCore(key)
		f, err := radio.FrameGCMEnc(make([]byte, 12), nil, make([]byte, 16*blocks))
		if err != nil {
			t.Fatal(err)
		}
		_, code, cyc := runFrame(t, eng, c, f)
		if code != firmware.ResultOK {
			t.Fatal("task failed")
		}
		return cyc
	}
	c64, c128 := run(64), run(128)
	perBlock := float64(c128-c64) / 64
	if perBlock < 49 || perBlock > 57 {
		t.Errorf("GCM steady-state = %.1f cycles/block, want within [49, 57]", perBlock)
	}
	t.Logf("GCM loop: %.2f cycles/block (paper theoretical 49, 2KB-implied ~55.7)", perBlock)
}

// TestCCMLoopSteadyState checks the one-core CCM bound (paper: 104).
func TestCCMLoopSteadyState(t *testing.T) {
	key := make([]byte, 16)
	run := func(blocks int) sim.Time {
		eng, c := newTestCore(key)
		f, err := radio.FrameCCMEnc(make([]byte, 13), nil, make([]byte, 16*blocks), 8)
		if err != nil {
			t.Fatal(err)
		}
		_, code, cyc := runFrame(t, eng, c, f)
		if code != firmware.ResultOK {
			t.Fatal("task failed")
		}
		return cyc
	}
	c64, c128 := run(64), run(128)
	perBlock := float64(c128-c64) / 64
	if perBlock < 104 || perBlock > 116 {
		t.Errorf("CCM steady-state = %.1f cycles/block, want within [104, 116]", perBlock)
	}
	t.Logf("CCM 1-core loop: %.2f cycles/block (paper theoretical 104, 2KB-implied ~113.7)", perBlock)
}

// TestStarvedTaskDrainsWhereCompatDoes gives a 64-block GCM task only its
// first few input blocks, so the controller ends up waiting mid-task on a
// LOAD that never gets its data. The engine must drain at the cycle the
// reference path does: the last thing either path does is the controller
// strobing its next OUTPUT behind the parked LOAD.
func TestStarvedTaskDrainsWhereCompatDoes(t *testing.T) {
	f, err := radio.FrameGCMEnc(make([]byte, 12), nil, make([]byte, 16*64))
	if err != nil {
		t.Fatal(err)
	}
	for _, blocks := range []int{1, 3, 5, 9, 17, 40} {
		var end [2]sim.Time
		for i, compat := range []bool{false, true} {
			eng, c := newTestCore(make([]byte, 16))
			eng.Compat = compat
			pushFrame(c, radio.Frame{In: f.In[:blocks]})
			c.Start(f.Task, nil)
			end[i] = eng.Run()
			if c.CPU.Halted() || !c.Busy() {
				t.Fatalf("%d blocks, compat=%v: the task did not stall on its input", blocks, compat)
			}
		}
		if end[0] != end[1] {
			t.Errorf("%d input blocks: engine drained at cycle %d, reference path at %d", blocks, end[0], end[1])
		}
	}
}

// BenchmarkGCMLoop is the single-core rung of the host-cost ladder: one
// 128-block GCM encryption per iteration on a lone core, the model's
// 53-cycle steady state (E1's LoopTimes_GCM; §VII.A's T_GCMloop formula
// gives 49) with nothing else on the engine. ns/block and events/block
// are the figures to watch (events/block counts Engine.Step calls: the unit
// runs the loop ahead of the clock, so it is the prologue's and epilogue's
// events, one per unit instruction, plus two for the run, over 128 blocks;
// TestGCMLoopEventsPerBlock pins them).
func BenchmarkGCMLoop(b *testing.B) { benchGCMLoop(b, 1) }

// BenchmarkGCMLoop4 is the same rung with four cores in lock-step on one
// engine, each always finding the other three's events pending: the run
// ahead must not depend on that (within 0.3 events/block).
func BenchmarkGCMLoop4(b *testing.B) { benchGCMLoop(b, 4) }

const loopBlocks = 128

// gcmLoopRig is the rung's rig: cores cores on one engine. Each round gives
// every core one loopBlocks-block GCM encryption, runs the engine dry and
// returns how many events it stepped.
func gcmLoopRig(tb testing.TB, cores int) (round func() int) {
	eng := sim.NewEngine()
	cs := make([]*cryptocore.Core, cores)
	for i := range cs {
		cs[i] = cryptocore.New(eng, i)
		cs[i].InstallAESKeys(aes.MustNewSchedule(make([]byte, 16)))
	}
	eng.Run() // reach the idle HALT
	f, err := radio.FrameGCMEnc(make([]byte, 12), nil, make([]byte, 16*loopBlocks))
	if err != nil {
		tb.Fatal(err)
	}
	finished := 0
	onResult := func(r cryptocore.Result) {
		if r.Code != firmware.ResultOK {
			tb.Fatalf("task result %#x", r.Code)
		}
		finished++
	}
	return func() (events int) {
		finished = 0
		for _, c := range cs {
			pushFrame(c, f)
			c.Start(f.Task, onResult)
		}
		for eng.Step() {
			events++
		}
		for _, c := range cs {
			for c.Out.Len() > 0 {
				c.Out.TryPop()
			}
		}
		if finished != cores {
			tb.Fatalf("%d tasks finished, want %d", finished, cores)
		}
		return events
	}
}

func benchGCMLoop(b *testing.B, cores int) {
	round := gcmLoopRig(b, cores)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += round()
	}
	work := float64(b.N * cores * loopBlocks)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/work, "ns/block")
	b.ReportMetric(float64(events)/work, "events/block")
}

// TestGCMLoopEventsPerBlock pins the kernel rungs' exact event counts in
// virtual time, free of host noise: a round of BenchmarkGCMLoop takes 26
// events after the first (0.2031 per block), one of BenchmarkGCMLoop4 172
// (0.3359 per block), because the unit runs the loop ahead of the clock.
// The first round also takes the controller from its idle HALT. An event per
// unit instruction again would be more than 0.5 per block.
func TestGCMLoopEventsPerBlock(t *testing.T) {
	for _, tc := range []struct{ cores, first, steady int }{{1, 34, 26}, {4, 204, 172}} {
		if limit := tc.cores * loopBlocks / 2; tc.steady > limit {
			t.Fatalf("%d cores: pinned %d events per round, above the limit of %d", tc.cores, tc.steady, limit)
		}
		round := gcmLoopRig(t, tc.cores)
		for i := 0; i < 4; i++ {
			want := tc.steady
			if i == 0 {
				want = tc.first
			}
			if got := round(); got != want {
				t.Errorf("%d cores, round %d: %d events (%.4f per block), want %d", tc.cores, i, got, float64(got)/float64(tc.cores*loopBlocks), want)
			}
		}
	}
}
