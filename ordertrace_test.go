// Order-exactness guard for the simulation kernel's fast paths.
//
// The determinism tests pin virtual-time results — cycle counts, Mbps,
// packet digests — and those survive a reordering of same-cycle events on
// different cores. This test pins the order itself: every Cryptographic
// Unit's Trace hook fires at instruction acceptance, so the global call
// sequence of (cycle, core, instruction) across the four cores is the
// engine's execution order made visible. The digests below were computed on
// the commit before handshake fusion (cryptounit.Issue/complete running
// their zero-delay continuations inline when sim.Engine.Quiet allows) and
// the fused kernel must reproduce them.
//
// The guard has teeth: making Engine.Quiet return true unconditionally —
// "always inline", which passes every other test in the tree — changes all
// four digests (checked by hand when the constants were pinned), because it
// lets one core's continuation overtake another core's same-cycle event.
package mccp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/cuisa"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// orderRig is a four-core device whose units fold every accepted
// instruction, in engine execution order, into one FNV-64a digest.
type orderRig struct {
	eng    *sim.Engine
	cc     *radio.CommController
	mc     *radio.MainController
	order  hash.Hash64
	issues int
}

func newOrderRig() *orderRig {
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{Cores: 4, QueueRequests: true})
	r := &orderRig{eng: eng, cc: radio.NewCommController(dev), mc: radio.NewMainController(dev, 99), order: fnv.New64a()}
	for _, c := range dev.Cores {
		id := uint64(c.ID)
		c.Unit.Trace = func(now sim.Time, in cuisa.Instr) {
			r.issues++
			var rec [24]byte
			binary.LittleEndian.PutUint64(rec[0:], uint64(now))
			binary.LittleEndian.PutUint64(rec[8:], id)
			binary.LittleEndian.PutUint64(rec[16:], uint64(in))
			r.order.Write(rec[:])
		}
	}
	eng.Run()
	return r
}

func (r *orderRig) open(t *testing.T, s core.Suite, keyBytes int) int {
	t.Helper()
	keyID, _, err := r.mc.ProvisionKey(keyBytes)
	if err != nil {
		t.Fatal(err)
	}
	ch := 0
	r.cc.OpenChannel(s, keyID, func(c int, e error) {
		if e != nil {
			t.Fatal(e)
		}
		ch = c
	})
	r.eng.Run()
	return ch
}

// orderMapping keeps m.Streams packets of mixed sizes in flight on one
// channel, Table II style, and returns the order digest.
func orderMapping(t *testing.T, fam cryptocore.Family, streams int, split bool) uint64 {
	t.Helper()
	r := newOrderRig()
	ch := r.open(t, core.Suite{Family: fam, TagLen: 16, SplitCCM: split}, 16)
	nonce := make([]byte, 12)
	if fam == cryptocore.FamilyCCM {
		nonce = make([]byte, 13)
	}
	sizes := [16]int{2048, 64, 1500, 16, 777, 2048, 1, 512, 33, 1024, 2047, 128, 300, 2048, 48, 999}
	launched, completed := 0, 0
	var launch func()
	launch = func() {
		if launched == len(sizes) {
			return
		}
		n := sizes[launched]
		launched++
		r.cc.Encrypt(ch, nonce, nil, make([]byte, n), func(_ []byte, e error) {
			if e != nil {
				t.Fatal(e)
			}
			completed++
			launch()
		})
	}
	for i := 0; i < streams; i++ {
		launch()
	}
	r.eng.Run()
	if completed != len(sizes) || r.issues == 0 {
		t.Fatalf("%d/%d packets completed, %d issues traced", completed, len(sizes), r.issues)
	}
	return r.order.Sum64()
}

// orderRandomMix drives six channels (GCM and CCM at each key size) with a
// seeded mix: 1-2048 B payloads, 0-64 B AAD, four requests in flight, every
// encryption followed by the decryption of its own output, one of which
// carries a flipped tag and must fail authentication.
func orderRandomMix(t *testing.T) uint64 {
	t.Helper()
	const packets, badTag = 24, 11
	r := newOrderRig()
	type channel struct {
		id       int
		nonceLen int
	}
	var chans []channel
	for _, kb := range []int{16, 24, 32} {
		chans = append(chans,
			channel{r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, kb), 12},
			channel{r.open(t, core.Suite{Family: cryptocore.FamilyCCM, TagLen: 16}, kb), 13})
	}
	rng := rand.New(rand.NewSource(12))
	launched, completed, authFails := 0, 0, 0
	var launch func()
	launch = func() {
		if launched == packets {
			return
		}
		seq := launched
		launched++
		c := chans[rng.Intn(len(chans))]
		nonce, aad, pt := make([]byte, c.nonceLen), make([]byte, rng.Intn(65)), make([]byte, 1+rng.Intn(2048))
		rng.Read(nonce)
		rng.Read(aad)
		rng.Read(pt)
		r.cc.Encrypt(c.id, nonce, aad, pt, func(out []byte, e error) {
			if e != nil {
				t.Fatal(e)
			}
			sealed := append([]byte(nil), out...)
			ct, tag := sealed[:len(pt)], sealed[len(pt):]
			if seq == badTag {
				tag[0] ^= 1
			}
			r.cc.Decrypt(c.id, nonce, aad, ct, tag, func(got []byte, e error) {
				switch {
				case seq == badTag && errors.Is(e, radio.ErrAuth):
					authFails++
				case e != nil || seq == badTag:
					t.Fatalf("packet %d: decrypt err = %v", seq, e)
				case !bytes.Equal(got, pt):
					t.Fatalf("packet %d: round trip differs", seq)
				}
				completed++
				launch()
			})
		})
	}
	for i := 0; i < 4; i++ {
		launch()
	}
	r.eng.Run()
	if completed != packets || authFails != 1 {
		t.Fatalf("%d/%d packets completed, %d auth failures", completed, packets, authFails)
	}
	return r.order.Sum64()
}

func TestUnitIssueOrderPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func() uint64
		want uint64
		// compat: the Compat reference path produces the same order. On
		// CCM 2x2 the pre-fusion fast path already differs from Compat in
		// same-cycle accept order (virtual-time results agree; recorded in
		// ROADMAP item 4), so only the pinned digest is checked there.
		compat bool
	}{
		{"GCM/4x1", func() uint64 { return orderMapping(t, cryptocore.FamilyGCM, 4, false) }, 0xdedae2e64844327f, true},
		{"CCM/4x1", func() uint64 { return orderMapping(t, cryptocore.FamilyCCM, 4, false) }, 0xce287f8af07a5b0f, true},
		{"CCM/2x2", func() uint64 { return orderMapping(t, cryptocore.FamilyCCM, 2, true) }, 0xc769639507d8bce3, false},
		{"mix", func() uint64 { return orderRandomMix(t) }, 0x8f99e8080d9fd392, true},
	}
	for _, c := range cases {
		got := c.run()
		if got != c.want {
			t.Errorf("%s: issue-order digest %#016x, pinned %#016x", c.name, got, c.want)
		}
		if again := c.run(); again != got {
			t.Errorf("%s: issue order not deterministic: %#016x then %#016x", c.name, got, again)
		}
		var ref uint64
		onReference(func() { ref = c.run() })
		if c.compat && ref != got {
			t.Errorf("%s: issue-order digest %#016x != reference path %#016x", c.name, got, ref)
		}
	}
}
