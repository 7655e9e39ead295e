package cryptocore_test

import (
	"bytes"
	"reflect"
	"testing"

	"mccp/internal/bits"
	"mccp/internal/cryptocore"
	"mccp/internal/cryptounit"
	"mccp/internal/cuisa"
	"mccp/internal/firmware"
	"mccp/internal/ghash"
	"mccp/internal/modes"
	"mccp/internal/picoblaze"
	"mccp/internal/radio"
	"mccp/internal/sim"
	"mccp/internal/twofish"
	"mccp/internal/whirlpool"
)

// agileRun is what a task on a reconfigured core must reproduce on the
// reference path: output, result and every acceptance.
type agileRun struct {
	out     []byte
	res     cryptocore.Result
	accepts []acceptRec
}

// runReconfigured runs frame f on a core whose reconfigurable region holds
// a fresh engine from newEngine and, when image is set, whose controller runs
// that image, under Compat or not. It also returns how many unit
// instructions were settled in periodic steps.
func runReconfigured(t *testing.T, newEngine func() cryptounit.CipherEngine, image []picoblaze.Word, f radio.Frame, compat bool) (r agileRun, settled uint64) {
	t.Helper()
	eng := sim.NewEngine()
	c := cryptocore.New(eng, 0)
	c.AES = nil
	c.Unit.Cipher = newEngine()
	eng.Run()
	if image != nil {
		c.CPU.Stop()
		c.CPU.LoadProgram(image)
		c.CPU.Reset()
		c.CPU.Start()
		eng.Run()
	}
	eng.Compat = compat
	c.Unit.Trace = func(now sim.Time, in cuisa.Instr) { r.accepts = append(r.accepts, acceptRec{now, in}) }
	pushFrame(c, f)
	done := false
	c.Start(f.Task, func(res cryptocore.Result) { r.res, done = res, true })
	eng.Run()
	if !done {
		t.Fatalf("task %v did not complete", f.Task.Mode)
	}
	r.out = drain(c)
	return r, c.Unit.Settled
}

// runAgile runs f on both paths: the loop must settle on the fast one, and
// the two must agree. It returns the output and the result code.
func runAgile(t *testing.T, newEngine func() cryptounit.CipherEngine, image []picoblaze.Word, f radio.Frame) ([]byte, uint8) {
	t.Helper()
	fast, settled := runReconfigured(t, newEngine, image, f, false)
	ref, _ := runReconfigured(t, newEngine, image, f, true)
	if settled == 0 {
		t.Errorf("%v: no unit instruction was settled", f.Task.Mode)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("%v: fast path differs from the reference path", f.Task.Mode)
	}
	return fast.out, fast.res.Code
}

func twofishEngine(t *testing.T, key []byte) func() cryptounit.CipherEngine {
	return func() cryptounit.CipherEngine {
		tf := twofish.NewEngine()
		if err := tf.LoadKey(key); err != nil {
			t.Fatal(err)
		}
		return tf
	}
}

// TestCipherAgilityTwofishGCM substantiates the paper's conclusion ("AES
// core may be easily replaced by any other 128-bit block cipher (such as
// Twofish)"): the reconfigurable region gets a Twofish engine and the GCM
// firmware runs bit-for-bit unchanged, producing Twofish-GCM.
func TestCipherAgilityTwofishGCM(t *testing.T) {
	key := []byte("a sixteen-byte k")
	nonce := make([]byte, 12)
	aad := []byte("twofish header")
	payload := bytes.Repeat([]byte("the same firmware, a different 128-bit block cipher underneath. "), 3)[:189]

	f, err := radio.FrameGCMEnc(nonce, aad, payload)
	if err != nil {
		t.Fatal(err)
	}
	out, code := runAgile(t, twofishEngine(t, key), nil, f)
	if code != firmware.ResultOK {
		t.Fatalf("result code %d", code)
	}

	ref := (&modes.GCM{C: twofish.MustNew(key), Mul: ghash.Mul}).Seal(nonce, aad, payload)
	n := len(payload)
	if !bytes.Equal(out[:n], ref[:n]) {
		t.Fatal("Twofish-GCM ciphertext mismatch")
	}
	nb := (n + 15) / 16
	if !bytes.Equal(out[16*nb:16*nb+16], ref[n:]) {
		t.Fatalf("Twofish-GCM tag mismatch: got %x want %x", out[16*nb:16*nb+16], ref[n:])
	}
}

// TestCipherAgilityTwofishCCM runs the one-core CCM firmware on Twofish.
func TestCipherAgilityTwofishCCM(t *testing.T) {
	key := []byte("another 16-byte!")
	nonce := make([]byte, 13)
	payload := bytes.Repeat([]byte("counter with cbc-mac over a feistel cipher"), 4)
	f, err := radio.FrameCCMEnc(nonce, nil, payload, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, code := runAgile(t, twofishEngine(t, key), nil, f)
	if code != firmware.ResultOK {
		t.Fatalf("result code %d", code)
	}
	ref, err := modes.CCMSeal(twofish.MustNew(key), nonce, nil, payload, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := len(payload)
	nb := (n + 15) / 16
	if !bytes.Equal(out[:n], ref[:n]) || !bytes.Equal(out[16*nb:16*nb+8], ref[n:]) {
		t.Fatal("Twofish-CCM mismatch")
	}
}

// TestWhirlpoolHashSettles runs the hash image's absorb loop on the
// Whirlpool engine, whose ready cycle depends on its chunk phase: it is
// never Busy, so the unit's timing does not depend on it and the loop
// settles all the same.
func TestWhirlpoolHashSettles(t *testing.T) {
	msg := bytes.Repeat([]byte("whirlpool "), 30)
	padded := whirlpool.PadMessage(msg)
	f := radio.Frame{
		In:   bits.AppendPadBlocks(nil, padded),
		Task: cryptocore.Task{Mode: firmware.ModeHash, DataBlocks: uint8(len(padded) / 16), LastMask: 0xFFFF},
	}
	out, code := runAgile(t, func() cryptounit.CipherEngine { return whirlpool.NewEngine() }, firmware.ImageHash, f)
	if code != firmware.ResultOK {
		t.Fatalf("result code %d", code)
	}
	if want := whirlpool.Sum(msg); !bytes.Equal(out, want[:]) {
		t.Fatalf("digest %x, want %x", out, want)
	}
}
