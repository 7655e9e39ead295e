package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"

	"mccp/internal/bits"
)

// FIPS-197 Appendix C known-answer vectors.
var fipsVectors = []struct {
	key, pt, ct string
}{
	{
		"000102030405060708090a0b0c0d0e0f",
		"00112233445566778899aabbccddeeff",
		"69c4e0d86a7b0430d8cdb78070b4c55a",
	},
	{
		"000102030405060708090a0b0c0d0e0f1011121314151617",
		"00112233445566778899aabbccddeeff",
		"dda97ca4864cdfe06eaf70a0ec0d7191",
	},
	{
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		"00112233445566778899aabbccddeeff",
		"8ea2b7ca516745bfeafc49904b496089",
	},
}

func keyFromHex(t testing.TB, s string) []byte {
	t.Helper()
	b := make([]byte, len(s)/2)
	for i := range b {
		var v byte
		for j := 0; j < 2; j++ {
			c := s[2*i+j]
			switch {
			case c >= '0' && c <= '9':
				v = v<<4 | (c - '0')
			case c >= 'a' && c <= 'f':
				v = v<<4 | (c - 'a' + 10)
			default:
				t.Fatalf("bad hex %q", s)
			}
		}
		b[i] = v
	}
	return b
}

func TestFIPS197Vectors(t *testing.T) {
	for _, v := range fipsVectors {
		c := MustNew(keyFromHex(t, v.key))
		got := c.Encrypt(bits.BlockFromHex(v.pt))
		if got.Hex() != v.ct {
			t.Errorf("%v encrypt = %s, want %s", c.Size(), got.Hex(), v.ct)
		}
		if ref := c.EncryptRef(bits.BlockFromHex(v.pt)); ref.Hex() != v.ct {
			t.Errorf("%v EncryptRef = %s, want %s", c.Size(), ref.Hex(), v.ct)
		}
		back := c.Decrypt(got)
		if back.Hex() != v.pt {
			t.Errorf("%v decrypt = %s, want %s", c.Size(), back.Hex(), v.pt)
		}
	}
}

// TestAppendixBVector checks the worked example in FIPS-197 Appendix B.
func TestAppendixBVector(t *testing.T) {
	c := MustNew(keyFromHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	got := c.Encrypt(bits.BlockFromHex("3243f6a8885a308d313198a2e0370734"))
	want := "3925841d02dc09fbdc118597196a0b32"
	if got.Hex() != want {
		t.Errorf("encrypt = %s, want %s", got.Hex(), want)
	}
}

func TestDifferentialVsStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kl := range []int{16, 24, 32} {
		for i := 0; i < 200; i++ {
			key := make([]byte, kl)
			rng.Read(key)
			var pt bits.Block
			rng.Read(pt[:])

			ours := MustNew(key)
			ref, err := stdaes.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			var want bits.Block
			ref.Encrypt(want[:], pt[:])
			if got := ours.Encrypt(pt); got != want {
				t.Fatalf("key %x pt %s: got %s want %s", key, pt.Hex(), got.Hex(), want.Hex())
			}
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(key [32]byte, pt bits.Block, sel uint8) bool {
		sizes := []int{16, 24, 32}
		c := MustNew(key[:sizes[int(sel)%3]])
		return c.Decrypt(c.Encrypt(pt)) == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSBoxProperties(t *testing.T) {
	// The derived S-box must be a permutation with no fixed points and must
	// match the FIPS-197 anchors.
	seen := make(map[byte]bool)
	for i := 0; i < 256; i++ {
		s := SBox(byte(i))
		if seen[s] {
			t.Fatalf("S-box not a permutation: duplicate value %#x", s)
		}
		seen[s] = true
		if s == byte(i) {
			t.Errorf("S-box fixed point at %#x", i)
		}
		if invSbox[s] != byte(i) {
			t.Errorf("invSbox(sbox(%#x)) = %#x", i, invSbox[s])
		}
	}
	anchors := map[byte]byte{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16}
	for in, want := range anchors {
		if got := SBox(in); got != want {
			t.Errorf("SBox(%#x) = %#x, want %#x", in, got, want)
		}
	}
}

func TestExpandKeyFirstLast(t *testing.T) {
	// The first round key must equal the cipher key (AES-128), and
	// FIPS-197 A.1's final round key is d014f9a8c9ee2589e13f0cc8b6630ca6.
	key := keyFromHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	rk := ExpandKey(key)
	if !bytes.Equal(rk[0][:], key) {
		t.Errorf("round key 0 = %s, want cipher key", rk[0].Hex())
	}
	if want := "d014f9a8c9ee2589e13f0cc8b6630ca6"; rk[10].Hex() != want {
		t.Errorf("round key 10 = %s, want %s", rk[10].Hex(), want)
	}
}

func TestCoreCycles(t *testing.T) {
	// The paper: 44, 52 or 60 cycles for 128-, 192- or 256-bit keys.
	want := map[KeySize]uint64{Key128: 44, Key192: 52, Key256: 60}
	for ks, w := range want {
		if got := ks.CoreCycles(); got != w {
			t.Errorf("%v CoreCycles = %d, want %d", ks, got, w)
		}
	}
}

func TestCore32Timing(t *testing.T) {
	key := keyFromHex(t, "000102030405060708090a0b0c0d0e0f")
	core := NewCore32()
	core.LoadKeys(Key128, ExpandKey(key))
	pt := bits.BlockFromHex("00112233445566778899aabbccddeeff")
	ready := core.Start(1000, pt)
	if ready != 1044 {
		t.Errorf("ReadyAt = %d, want 1044", ready)
	}
	if !core.Busy() {
		t.Error("core should be busy after Start")
	}
	ct := core.Collect()
	if ct.Hex() != "69c4e0d86a7b0430d8cdb78070b4c55a" {
		t.Errorf("ciphertext = %s", ct.Hex())
	}
	if core.Busy() {
		t.Error("core should be idle after Collect")
	}
}

// TestLoadKeysRejectsNonExpansion: LoadKeys reads the cipher key back from
// the first Nk words, so anything but that key's own FIPS-197 expansion
// would silently compute under different round keys — it must panic.
func TestLoadKeysRejectsNonExpansion(t *testing.T) {
	key := keyFromHex(t, fipsVectors[0].key)
	flip := func(round, byt int) []bits.Block {
		rk := ExpandKey(key)
		rk[round][byt] ^= 1
		return rk
	}
	for _, tc := range []struct {
		name string
		size KeySize
		keys []bits.Block
		ok   bool
	}{
		{"the expansion itself", Key128, ExpandKey(key), true},
		{"AES-256 expansion", Key256, ExpandKey(keyFromHex(t, fipsVectors[2].key)), true},
		{"last round key altered", Key128, flip(10, 15), false},
		{"middle round key altered", Key128, flip(5, 0), false},
		{"eleven zero blocks", Key128, make([]bits.Block, 11), false},
		{"ten blocks", Key128, ExpandKey(key)[:10], false},
		{"AES-128 expansion loaded as AES-192", Key192, ExpandKey(key), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("panic = %v, want ok = %v", r, tc.ok)
				}
			}()
			NewCore32().LoadKeys(tc.size, tc.keys)
		})
	}
}

// FuzzCore32 is the oracle chain's last link: EncryptRef is held to the
// FIPS-197 vectors and the T-table Encrypt to EncryptRef above; here the
// platform block function Core32 runs must agree with both, whether the
// core was loaded with a Schedule or with bare round keys.
func FuzzCore32(f *testing.F) {
	// Seed corpus: FIPS-197 C.1-C.3, in testdata/fuzz/FuzzCore32.
	f.Fuzz(func(t *testing.T, key, block []byte) {
		switch {
		case len(key) >= 32:
			key = key[:32]
		case len(key) >= 24:
			key = key[:24]
		case len(key) >= 16:
			key = key[:16]
		default:
			t.Skip()
		}
		var in bits.Block
		copy(in[:], block)
		ref := MustNew(key)
		want := ref.EncryptRef(in)
		if got := ref.Encrypt(in); got != want {
			t.Fatalf("T-table %s != EncryptRef %s", got.Hex(), want.Hex())
		}
		bySchedule, byRoundKeys := NewCore32(), NewCore32()
		bySchedule.Load(MustNewSchedule(key))
		byRoundKeys.LoadKeys(KeySize(len(key)), ExpandKey(key))
		for _, c := range []*Core32{bySchedule, byRoundKeys} {
			if ready := c.Start(7, in); ready != 7+c.Size().CoreCycles() {
				t.Fatalf("ready at %d", ready)
			}
			if got := c.Collect(); got != want {
				t.Fatalf("key %x in %s: Core32 %s != EncryptRef %s", key, in.Hex(), got.Hex(), want.Hex())
			}
		}
	})
}

// BenchmarkCore32Block is the aes rung next to the code: one SAES/FAES
// pair's host cost (bench/ reports the same loop as aes.rung_ns_per_block).
// It must report 0 allocs/op.
func BenchmarkCore32Block(b *testing.B) {
	c := NewCore32()
	c.Load(MustNewSchedule(make([]byte, 16)))
	var blk bits.Block
	b.ReportAllocs()
	b.SetBytes(bits.BlockBytes)
	for i := 0; i < b.N; i++ {
		c.Start(0, blk)
		blk = c.Collect()
	}
	sinkBlock = blk
}

var sinkBlock bits.Block

func TestInvalidKeyLength(t *testing.T) {
	if _, err := New(make([]byte, 15)); err == nil {
		t.Error("expected error for 15-byte key")
	}
	if _, err := New(nil); err == nil {
		t.Error("expected error for nil key")
	}
}

func BenchmarkEncryptFunctional(b *testing.B) {
	c := MustNew(make([]byte, 16))
	var pt bits.Block
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		pt = c.Encrypt(pt)
	}
}

// TestEncryptMatchesRef pins the T-table hot path to the structural
// FIPS-197 reference for random keys and blocks of every key size.
func TestEncryptMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{16, 24, 32} {
		for i := 0; i < 100; i++ {
			key := make([]byte, n)
			rng.Read(key)
			c := MustNew(key)
			var in bits.Block
			rng.Read(in[:])
			if got, want := c.Encrypt(in), c.EncryptRef(in); got != want {
				t.Fatalf("AES-%d: T-table %s != reference %s", n*8, got.Hex(), want.Hex())
			}
		}
	}
}
