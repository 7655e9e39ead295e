package mccp_test

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand"
	"testing"

	"mccp"
	"mccp/internal/aes"
	"mccp/internal/bits"
	"mccp/internal/cryptocore"
	"mccp/internal/ghash"
	"mccp/internal/modes"
	"mccp/internal/sim"
)

// stdBlock adapts crypto/aes to modes.BlockCipher.
type stdBlock struct{ c cipher.Block }

func (b stdBlock) Encrypt(in bits.Block) bits.Block {
	var out bits.Block
	b.c.Encrypt(out[:], in[:])
	return out
}

// shapeCase is one random packet shape of TestDeviceDifferentialRandomShapes.
type shapeCase struct {
	suite               mccp.Suite
	keyLen              int
	nonce, aad, payload []byte
}

func (c shapeCase) String() string {
	return fmt.Sprintf("%v split=%v tag=%d key=%d payload=%d aad=%d",
		c.suite.Family, c.suite.SplitCCM, c.suite.TagLen, c.keyLen, len(c.payload), len(c.aad))
}

func randomShapes(seed int64, n int) []shapeCase {
	rng := rand.New(rand.NewSource(seed))
	bytesOf := func(k int) []byte {
		b := make([]byte, k)
		rng.Read(b)
		return b
	}
	cases := make([]shapeCase, n)
	for i := range cases {
		c := &cases[i]
		c.keyLen = []int{16, 24, 32}[rng.Intn(3)]
		switch rng.Intn(3) {
		case 0:
			c.suite = mccp.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}
			c.nonce = bytesOf(12)
		case 1:
			c.suite = mccp.Suite{Family: cryptocore.FamilyCCM, TagLen: []int{4, 8, 16}[rng.Intn(3)]}
			c.nonce = bytesOf(13)
		default:
			c.suite = mccp.Suite{Family: cryptocore.FamilyCCM, TagLen: []int{4, 8, 16}[rng.Intn(3)], SplitCCM: true}
			c.nonce = bytesOf(13)
		}
		c.payload = bytesOf(1 + rng.Intn(2048))
		c.aad = bytesOf(rng.Intn(65))
	}
	return cases
}

// sealReference seals one packet twice without the device: over crypto/aes,
// the block function Core32 runs, and over the repo's own T-table AES, which
// tier-1 holds to the FIPS-197 vectors independently of the standard library.
func sealReference(t *testing.T, c shapeCase, key []byte) []byte {
	t.Helper()
	blk, err := stdaes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var std, own []byte
	if c.suite.Family == cryptocore.FamilyGCM {
		gcm, err := cipher.NewGCM(blk)
		if err != nil {
			t.Fatal(err)
		}
		std = gcm.Seal(nil, c.nonce, c.payload, c.aad)
		own = (&modes.GCM{C: aes.MustNew(key), Mul: ghash.Mul}).Seal(c.nonce, c.aad, c.payload)
	} else {
		if std, err = modes.CCMSeal(stdBlock{blk}, c.nonce, c.aad, c.payload, c.suite.TagLen); err != nil {
			t.Fatal(err)
		}
		if own, err = modes.CCMSeal(aes.MustNew(key), c.nonce, c.aad, c.payload, c.suite.TagLen); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(std, own) {
		t.Fatalf("%v: the two references disagree", c)
	}
	return std
}

// TestDeviceDifferentialRandomShapes runs 200 seeded packets of random key
// size, payload (1-2048 B, mostly ending in a partial block), AAD (0-64 B)
// and mode — GCM, CCM on one core, CCM split over two — through one whole
// device, each under a fresh key so Key Caches fill, miss and evict. Every
// sealed packet must equal the references and decrypt back on the device,
// on the fast path and on the event-per-step reference path, with equal
// cycle counts after every packet.
func TestDeviceDifferentialRandomShapes(t *testing.T) {
	cases := randomShapes(15, 200)
	run := func() []sim.Time {
		p, err := mccp.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		cycles := make([]sim.Time, len(cases))
		for i, c := range cases {
			keyID, key, err := p.MC.ProvisionKey(c.keyLen)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := p.Open(c.suite, keyID)
			if err != nil {
				t.Fatalf("case %d (%v): open: %v", i, c, err)
			}
			sealed, err := ch.Encrypt(c.nonce, c.aad, c.payload)
			if err != nil {
				t.Fatalf("case %d (%v): encrypt: %v", i, c, err)
			}
			if want := sealReference(t, c, key); !bytes.Equal(sealed, want) {
				t.Fatalf("case %d (%v): device output differs from the references\n got %x\nwant %x", i, c, sealed, want)
			}
			n := len(c.payload)
			plain, err := ch.Decrypt(c.nonce, c.aad, sealed[:n], sealed[n:])
			if err != nil || !bytes.Equal(plain, c.payload) {
				t.Fatalf("case %d (%v): device decrypt of its own packet: err=%v", i, c, err)
			}
			if err := ch.Close(); err != nil {
				t.Fatal(err)
			}
			p.MC.RemoveKey(keyID)
			cycles[i] = p.Cycles()
		}
		return cycles
	}
	fast := run()
	var ref []sim.Time
	onReference(func() { ref = run() })
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("case %d (%v): fast path at cycle %d, reference path at %d", i, cases[i], fast[i], ref[i])
		}
	}
}
