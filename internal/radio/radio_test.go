package radio_test

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"

	"mccp/internal/aes"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/modes"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// rig is a full platform: engine, device, controllers.
type rig struct {
	eng *sim.Engine
	dev *core.MCCP
	cc  *radio.CommController
	mc  *radio.MainController
}

func newRig(cfg core.Config) *rig {
	eng := sim.NewEngine()
	dev := core.New(eng, cfg)
	cc := radio.NewCommController(dev)
	mc := radio.NewMainController(dev, 0xC0FFEE)
	eng.Run() // settle the cores into their idle HALT
	return &rig{eng: eng, dev: dev, cc: cc, mc: mc}
}

// open provisions a key and opens a channel synchronously (driving the sim).
func (r *rig) open(t *testing.T, s core.Suite, keyLen int) (int, []byte) {
	t.Helper()
	keyID, key, err := r.mc.ProvisionKey(keyLen)
	if err != nil {
		t.Fatal(err)
	}
	ch := 0
	r.cc.OpenChannel(s, keyID, func(c int, err error) {
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		ch = c
	})
	r.eng.Run()
	if ch == 0 {
		t.Fatal("OPEN did not complete")
	}
	return ch, key
}

func (r *rig) encrypt(t *testing.T, ch int, nonce, aad, pt []byte) []byte {
	t.Helper()
	var out []byte
	done := false
	r.cc.Encrypt(ch, nonce, aad, pt, func(b []byte, err error) {
		if err != nil {
			t.Fatalf("encrypt: %v", err)
		}
		out = b
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("encrypt did not complete (deadlock)")
	}
	return out
}

func (r *rig) decrypt(t *testing.T, ch int, nonce, aad, ct, tag []byte) ([]byte, error) {
	t.Helper()
	var out []byte
	var derr error
	done := false
	r.cc.Decrypt(ch, nonce, aad, ct, tag, func(b []byte, err error) {
		out, derr = b, err
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("decrypt did not complete (deadlock)")
	}
	return out, derr
}

func TestEndToEndGCMAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r := newRig(core.Config{})
	ch, key := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 16)

	for i := 0; i < 12; i++ {
		nonce := make([]byte, 12)
		aad := make([]byte, rng.Intn(48))
		pt := make([]byte, rng.Intn(2048))
		rng.Read(nonce)
		rng.Read(aad)
		rng.Read(pt)

		got := r.encrypt(t, ch, nonce, aad, pt)

		blk, _ := stdaes.NewCipher(key)
		ref, _ := cipher.NewGCM(blk)
		want := ref.Seal(nil, nonce, pt, aad)
		if !bytes.Equal(got, want) {
			t.Fatalf("packet %d: device output != crypto/cipher GCM\n got %x\nwant %x", i, got, want)
		}

		pt2, err := r.decrypt(t, ch, nonce, aad, got[:len(pt)], got[len(pt):])
		if err != nil || !bytes.Equal(pt2, pt) {
			t.Fatalf("packet %d: decrypt roundtrip failed: %v", i, err)
		}
	}
}

// TestRekeyUsesNewKey: a live key ID cannot be overwritten; re-using an ID
// is Delete, Invalidate on every core's Key Cache, Store — after which no
// core (and no memoised schedule) still answers with the old key.
func TestRekeyUsesNewKey(t *testing.T) {
	r := newRig(core.Config{})
	suite := core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}
	nonce, aad, pt := make([]byte, 12), []byte("hdr"), []byte("one packet under each key, same key ID")
	seal := func(key []byte) []byte {
		blk, _ := stdaes.NewCipher(key)
		ref, _ := cipher.NewGCM(blk)
		return ref.Seal(nil, nonce, pt, aad)
	}
	open := func(keyID int) int {
		ch := 0
		r.cc.OpenChannel(suite, keyID, func(c int, err error) {
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			ch = c
		})
		r.eng.Run()
		return ch
	}

	oldKey, newKey := bytes.Repeat([]byte{0x11}, 16), bytes.Repeat([]byte{0x22}, 32)
	id, err := r.mc.InstallKey(oldKey)
	if err != nil {
		t.Fatal(err)
	}
	ch := open(id)
	if got := r.encrypt(t, ch, nonce, aad, pt); !bytes.Equal(got, seal(oldKey)) {
		t.Fatal("first key: device output != crypto/cipher GCM")
	}
	r.cc.CloseChannel(ch, func(err error) {
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	})
	r.eng.Run()

	if err := r.dev.KeyMem.Store(id, newKey); err == nil {
		t.Fatal("Store over a live key ID accepted")
	}
	r.mc.RemoveKey(id)
	for _, c := range r.dev.Caches {
		c.Invalidate(id)
	}
	if err := r.dev.KeyMem.Store(id, newKey); err != nil {
		t.Fatal(err)
	}
	if got := r.encrypt(t, open(id), nonce, aad, pt); !bytes.Equal(got, seal(newKey)) {
		t.Fatal("after rekey: device output is not under the new key")
	}
}

func TestEndToEndCCMSingleAndSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, split := range []bool{false, true} {
		r := newRig(core.Config{})
		ch, key := r.open(t, core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8, SplitCCM: split}, 16)
		for i := 0; i < 6; i++ {
			nonce := make([]byte, 13)
			aad := make([]byte, rng.Intn(32))
			pt := make([]byte, 1+rng.Intn(2047))
			rng.Read(nonce)
			rng.Read(aad)
			rng.Read(pt)

			got := r.encrypt(t, ch, nonce, aad, pt)
			want, err := modes.CCMSeal(aes.MustNew(key), nonce, aad, pt, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("split=%v packet %d: CCM mismatch", split, i)
			}
			pt2, err := r.decrypt(t, ch, nonce, aad, got[:len(pt)], got[len(pt):])
			if err != nil || !bytes.Equal(pt2, pt) {
				t.Fatalf("split=%v packet %d: decrypt failed: %v", split, i, err)
			}
		}
	}
}

func TestEndToEndAuthFailure(t *testing.T) {
	r := newRig(core.Config{})
	ch, _ := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 16)
	nonce := make([]byte, 12)
	pt := []byte("radio packet with integrity protection")
	sealed := r.encrypt(t, ch, nonce, nil, pt)
	ct, tag := sealed[:len(pt)], sealed[len(pt):]

	badTag := append([]byte(nil), tag...)
	badTag[5] ^= 1
	out, err := r.decrypt(t, ch, nonce, nil, ct, badTag)
	if err != radio.ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	if len(out) != 0 {
		t.Fatalf("leaked %d bytes on auth failure", len(out))
	}
	if r.dev.Stats.AuthFails != 1 {
		t.Errorf("device auth-fail count = %d", r.dev.Stats.AuthFails)
	}
	// The device must remain fully usable afterwards.
	pt2, err := r.decrypt(t, ch, nonce, nil, ct, tag)
	if err != nil || !bytes.Equal(pt2, pt) {
		t.Fatalf("device wedged after auth failure: %v", err)
	}
}

func TestMultiChannelConcurrency(t *testing.T) {
	// Four channels with different suites and keys, packets in flight
	// simultaneously on a 4-core device; every result must be correct.
	rng := rand.New(rand.NewSource(79))
	r := newRig(core.Config{})

	gcmCh, gcmKey := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 16)
	ccmCh, ccmKey := r.open(t, core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8}, 24)
	gcm2Ch, gcm2Key := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 12}, 32)
	ctrCh, ctrKey := r.open(t, core.Suite{Family: cryptocore.FamilyCTR}, 16)

	type result struct {
		got  []byte
		want []byte
	}
	var results []*result
	expect := func(want []byte) func([]byte, error) {
		res := &result{want: want}
		results = append(results, res)
		return func(b []byte, err error) {
			if err != nil {
				t.Errorf("packet error: %v", err)
			}
			res.got = b
		}
	}

	for round := 0; round < 5; round++ {
		gcmNonce := make([]byte, 12)
		ccmNonce := make([]byte, 13)
		icb := make([]byte, 16)
		pt1 := make([]byte, 400+rng.Intn(400))
		pt2 := make([]byte, 200+rng.Intn(600))
		pt3 := make([]byte, 100+rng.Intn(100))
		pt4 := make([]byte, 777)
		rng.Read(gcmNonce)
		rng.Read(ccmNonce)
		rng.Read(icb)
		icb[14], icb[15] = 0, 0
		rng.Read(pt1)
		rng.Read(pt2)
		rng.Read(pt3)
		rng.Read(pt4)

		blk, _ := stdaes.NewCipher(gcmKey)
		ref1, _ := cipher.NewGCM(blk)
		r.cc.Encrypt(gcmCh, gcmNonce, nil, pt1, expect(ref1.Seal(nil, gcmNonce, pt1, nil)))

		want2, _ := modes.CCMSeal(aes.MustNew(ccmKey), ccmNonce, nil, pt2, 8)
		r.cc.Encrypt(ccmCh, ccmNonce, nil, pt2, expect(want2))

		blk3, _ := stdaes.NewCipher(gcm2Key)
		ref3, _ := cipher.NewGCM(blk3)
		want3 := ref3.Seal(nil, gcmNonce, pt3, nil)
		want3 = append(want3[:len(pt3)], want3[len(pt3):len(pt3)+12]...)
		r.cc.Encrypt(gcm2Ch, gcmNonce, nil, pt3, expect(want3))

		var icbBlock [16]byte
		copy(icbBlock[:], icb)
		want4 := modes.CTR(aes.MustNew(ctrKey), toBlock(icb), pt4)
		r.cc.Encrypt(ctrCh, icb, nil, pt4, expect(want4))

		r.eng.Run()
	}

	for i, res := range results {
		if res.got == nil {
			t.Fatalf("packet %d never completed", i)
		}
		if !bytes.Equal(res.got, res.want) {
			t.Fatalf("packet %d mismatch:\n got %x\nwant %x", i, res.got, res.want)
		}
	}
}

func toBlock(b []byte) (out [16]byte) { copy(out[:], b); return }

func TestNoResourcesErrorFlag(t *testing.T) {
	// Five simultaneous submits on a four-core device without queueing:
	// the fifth gets the paper's error flag.
	r := newRig(core.Config{Cores: 4})
	ch, _ := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 16)
	nonce := make([]byte, 12)
	pt := make([]byte, 2048)

	okCount, rejCount := 0, 0
	for i := 0; i < 5; i++ {
		r.cc.Encrypt(ch, nonce, nil, pt, func(_ []byte, err error) {
			if err == core.ErrNoResources {
				rejCount++
			} else if err == nil {
				okCount++
			} else {
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
	r.eng.Run()
	if okCount != 4 || rejCount != 1 {
		t.Fatalf("ok=%d rejected=%d, want 4/1", okCount, rejCount)
	}
	if r.dev.Stats.Rejected != 1 {
		t.Errorf("Stats.Rejected = %d", r.dev.Stats.Rejected)
	}
}

func TestQueueingExtensionAbsorbsBurst(t *testing.T) {
	// With the QoS extension, a burst of 12 packets on 4 cores completes
	// without error flags.
	r := newRig(core.Config{Cores: 4, QueueRequests: true})
	ch, key := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 16)
	nonce := make([]byte, 12)

	blk, _ := stdaes.NewCipher(key)
	ref, _ := cipher.NewGCM(blk)

	completed := 0
	for i := 0; i < 12; i++ {
		pt := make([]byte, 64*(i+1))
		pt[0] = byte(i)
		want := ref.Seal(nil, nonce, pt, nil)
		r.cc.Encrypt(ch, nonce, nil, pt, func(got []byte, err error) {
			if err != nil {
				t.Errorf("packet %d: %v", completed, err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("queued packet mismatch")
			}
			completed++
		})
	}
	r.eng.Run()
	if completed != 12 {
		t.Fatalf("completed = %d, want 12", completed)
	}
	if r.dev.Stats.Queued == 0 {
		t.Error("expected some requests to queue")
	}
}

func TestKeyCacheAvoidsReexpansion(t *testing.T) {
	r := newRig(core.Config{Cores: 1})
	ch, _ := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 16)
	nonce := make([]byte, 12)
	for i := 0; i < 5; i++ {
		r.encrypt(t, ch, nonce, nil, make([]byte, 256))
	}
	if got := r.dev.KeySched.Expansions; got != 1 {
		t.Errorf("key expansions = %d, want 1 (cache must absorb repeats)", got)
	}
	if r.dev.Caches[0].Hits != 4 {
		t.Errorf("cache hits = %d, want 4", r.dev.Caches[0].Hits)
	}
}

func TestProtocolErrors(t *testing.T) {
	r := newRig(core.Config{})
	// OPEN with unknown key.
	r.dev.Open(core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 999, func(_ int, err error) {
		if err == nil {
			t.Error("OPEN with unknown key succeeded")
		}
	})
	// Submit on closed channel.
	r.dev.Submit(42, true, 0, 64, func(_ core.Assignment, err error) {
		if err != core.ErrBadChannel {
			t.Errorf("submit on bad channel: %v", err)
		}
	})
	// RETRIEVE_DATA on empty queue.
	r.dev.RetrieveData(func(_ core.Retrieval, err error) {
		if err != core.ErrNoData {
			t.Errorf("retrieve on empty queue: %v", err)
		}
	})
	// CLOSE of unknown channel.
	r.dev.Close(42, func(err error) {
		if err != core.ErrBadChannel {
			t.Errorf("close unknown channel: %v", err)
		}
	})
	// TRANSFER_DONE for unknown request.
	r.dev.TransferDone(1234, func(err error) {
		if err == nil {
			t.Error("TRANSFER_DONE for unknown request succeeded")
		}
	})
	r.eng.Run()
	// Open/close lifecycle.
	ch, _ := r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, 16)
	r.cc.CloseChannel(ch, func(err error) {
		if err != nil {
			t.Errorf("close: %v", err)
		}
	})
	r.eng.Run()
	r.cc.Encrypt(ch, make([]byte, 12), nil, []byte("x"), func(_ []byte, err error) {
		if err == nil {
			t.Error("encrypt on closed channel succeeded")
		}
	})
	r.eng.Run()
}
