package cryptocore_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mccp/internal/aes"
	"mccp/internal/cryptocore"
	"mccp/internal/firmware"
	"mccp/internal/modes"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// newCorePair builds two cores joined by inter-core mailboxes in both
// directions, as the paper's neighbouring-core arrangement provides.
func newCorePair(key []byte) (*sim.Engine, *cryptocore.Core, *cryptocore.Core) {
	eng := sim.NewEngine()
	macCore := cryptocore.New(eng, 0)
	ctrCore := cryptocore.New(eng, 1)
	m01 := sim.NewMailbox128(eng) // mac -> ctr
	m10 := sim.NewMailbox128(eng) // ctr -> mac
	macCore.ConnectNeighbors(m10, m01)
	ctrCore.ConnectNeighbors(m01, m10)
	sched := aes.MustNewSchedule(key)
	macCore.InstallAESKeys(sched)
	ctrCore.InstallAESKeys(sched)
	eng.Run()
	return eng, macCore, ctrCore
}

// runCCM2 executes a two-core CCM task and returns the CTR core's output,
// its result code and the wall-clock cycles from dispatch to the later of
// the two results.
func runCCM2(t *testing.T, encrypt bool, key, nonce, aad, payload, tag []byte, tagLen int) ([]byte, uint8, sim.Time) {
	t.Helper()
	eng, macCore, ctrCore := newCorePair(key)
	macF, ctrF, err := radio.FrameCCM2(encrypt, nonce, aad, payload, tag, tagLen)
	if err != nil {
		t.Fatal(err)
	}
	pushFrame(macCore, macF)
	pushFrame(ctrCore, ctrF)

	start := eng.Now()
	var macDone, ctrDone bool
	var ctrCode uint8
	var finish sim.Time
	macCore.Start(macF.Task, func(r cryptocore.Result) {
		macDone = true
		if eng.Now()-start > finish {
			finish = eng.Now() - start
		}
	})
	ctrCore.Start(ctrF.Task, func(r cryptocore.Result) {
		ctrDone = true
		ctrCode = r.Code
		if eng.Now()-start > finish {
			finish = eng.Now() - start
		}
	})
	eng.Run()
	if !macDone || !ctrDone {
		t.Fatalf("two-core CCM deadlock: mac=%v ctr=%v (pc mac=%#x ctr=%#x)",
			macDone, ctrDone, macCore.CPU.PC(), ctrCore.CPU.PC())
	}
	return drain(ctrCore), ctrCode, finish
}

func TestCCM2EncryptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range []int{0, 1, 16, 47, 300, 2048} {
		for _, aadLen := range []int{0, 13} {
			key := make([]byte, 16)
			nonce := make([]byte, 13)
			payload := make([]byte, n)
			aadBuf := make([]byte, aadLen)
			rng.Read(key)
			rng.Read(nonce)
			rng.Read(payload)
			rng.Read(aadBuf)
			const tagLen = 8

			out, code, _ := runCCM2(t, true, key, nonce, aadBuf, payload, nil, tagLen)
			if code != firmware.ResultOK {
				t.Fatalf("n=%d: result code %d", n, code)
			}
			ref, err := modes.CCMSeal(aes.MustNew(key), nonce, aadBuf, payload, tagLen)
			if err != nil {
				t.Fatal(err)
			}
			nb := (n + 15) / 16
			wantCT := ref[:n]
			wantTag := ref[n:]
			if !bytes.Equal(out[:n], wantCT) {
				t.Fatalf("n=%d aad=%d: two-core CT mismatch", n, aadLen)
			}
			if !bytes.Equal(out[16*nb:16*nb+tagLen], wantTag) {
				t.Fatalf("n=%d aad=%d: two-core TAG mismatch\n got %x\nwant %x",
					n, aadLen, out[16*nb:16*nb+tagLen], wantTag)
			}
		}
	}
}

func TestCCM2DecryptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 16, 47, 1024} {
		key := make([]byte, 16)
		nonce := make([]byte, 13)
		payload := make([]byte, n)
		aadBuf := make([]byte, 9)
		rng.Read(key)
		rng.Read(nonce)
		rng.Read(payload)
		rng.Read(aadBuf)
		const tagLen = 16

		sealed, err := modes.CCMSeal(aes.MustNew(key), nonce, aadBuf, payload, tagLen)
		if err != nil {
			t.Fatal(err)
		}
		ct, tag := sealed[:n], sealed[n:]

		out, code, _ := runCCM2(t, false, key, nonce, aadBuf, ct, tag, tagLen)
		if code != firmware.ResultOK {
			t.Fatalf("n=%d: auth failed on valid two-core packet", n)
		}
		if !bytes.Equal(out[:n], payload) {
			t.Fatalf("n=%d: two-core plaintext mismatch", n)
		}
	}
}

func TestCCM2DecryptRejectsTamper(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 13)
	payload := []byte("two cores, one packet: the inter-core shift register at work")
	sealed, err := modes.CCMSeal(aes.MustNew(key), nonce, nil, payload, 8)
	if err != nil {
		t.Fatal(err)
	}
	ct := append([]byte(nil), sealed[:len(payload)]...)
	tag := sealed[len(payload):]
	ct[7] ^= 0x20

	out, code, _ := runCCM2(t, false, key, nonce, nil, ct, tag, 8)
	if code != firmware.ResultAuthFail {
		t.Fatalf("result = %d, want AUTH_FAIL", code)
	}
	if len(out) != 0 {
		t.Fatalf("CTR core leaked %d bytes after auth failure", len(out))
	}
}

// TestCCM2SteadyState checks the two-core CCM per-block bound: the paper's
// T_CCMloop,2cores = 55 (CBC-MAC limited); with controller overhead the
// 2 KB column implies ~62 cycles/block.
func TestCCM2SteadyState(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 13)
	run := func(blocks int) sim.Time {
		_, _, cyc := runCCM2(t, true, key, nonce, nil, make([]byte, 16*blocks), nil, 8)
		return cyc
	}
	c64, c128 := run(64), run(128)
	perBlock := float64(c128-c64) / 64
	if perBlock < 55 || perBlock > 68 {
		t.Errorf("two-core CCM steady-state = %.1f cycles/block, want within [55, 68]", perBlock)
	}
	t.Logf("CCM 2-core loop: %.2f cycles/block (paper theoretical 55, 2KB-implied ~61.9)", perBlock)
}

// TestCCM2FasterThanOneCore verifies the headline claim: splitting one CCM
// packet across two cores beats one core by roughly the CTR-loop time.
func TestCCM2FasterThanOneCore(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 13)
	payload := make([]byte, 2048)

	_, _, two := runCCM2(t, true, key, nonce, nil, payload, nil, 8)

	eng, c := newTestCore(key)
	f, err := radio.FrameCCMEnc(nonce, nil, payload, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, _, one := runFrame(t, eng, c, f)

	speedup := float64(one) / float64(two)
	// Paper Table II: 442/233 ≈ 1.90 theoretical, 393/214 ≈ 1.84 at 2 KB.
	if speedup < 1.6 || speedup > 2.1 {
		t.Errorf("two-core speedup = %.2f, want ~1.8-1.9", speedup)
	}
	t.Logf("CCM 2KB packet: 1 core %d cycles, 2 cores %d cycles, speedup %.2f",
		one, two, speedup)
}
