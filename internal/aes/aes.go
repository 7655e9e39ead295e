// Package aes implements the AES block cipher (FIPS-197) from scratch,
// together with a timing model of the compact iterative 32-bit-datapath
// encryption core the MCCP paper instantiates (P. Chodowiec and K. Gaj,
// "Very compact FPGA implementation of the AES algorithm", CHES 2003).
//
// There are three encrypt implementations, each with one job:
//
//   - EncryptRef is the structural one (S-box lookup + explicit ShiftRows
//     and MixColumns). It mirrors the hardware the paper describes ("the
//     SubBytes transformation uses look up tables", iterative round
//     architecture), is easy to audit against FIPS-197, and is held to the
//     FIPS-197 vectors: the root oracle.
//   - Cipher.Encrypt runs the same rounds through T-tables derived at init
//     from the (itself derived) S-box. It is the software reference the
//     modes package and the tests compute with, held to EncryptRef.
//   - Core32, the engine inside every Cryptographic Unit and so the only
//     one a device packet touches, computes the value with the platform's
//     crypto/aes through a per-key Schedule and charges the paper's
//     44/52/60 cycles. It is held to both of the above by FuzzCore32.
//
// ExpandKey is the one key expansion: it fills the Key Cache model, and
// Core32.LoadKeys refuses round keys that are not its output.
package aes

import (
	"fmt"

	"mccp/internal/bits"
)

// KeySize identifies the AES key length.
type KeySize int

// Supported key sizes.
const (
	Key128 KeySize = 16
	Key192 KeySize = 24
	Key256 KeySize = 32
)

// Rounds returns the number of AES rounds for the key size (Nr).
func (k KeySize) Rounds() int {
	switch k {
	case Key128:
		return 10
	case Key192:
		return 12
	case Key256:
		return 14
	}
	panic(fmt.Sprintf("aes: invalid key size %d", int(k)))
}

// CoreCycles returns the per-block latency, in clock cycles, of the paper's
// iterative 32-bit datapath core: 44, 52 or 60 cycles for 128-, 192- or
// 256-bit keys ("Computation of one 128-bit block takes 44, 52 or 60
// cycles"). The pattern is 4 cycles per round plus a 4-cycle input stage.
func (k KeySize) CoreCycles() uint64 { return uint64(4 * (k.Rounds() + 1)) }

// String implements fmt.Stringer.
func (k KeySize) String() string { return fmt.Sprintf("AES-%d", int(k)*8) }

// sbox and invSbox are computed at package init from the GF(2^8) inverse and
// the FIPS-197 affine transform, so the tables themselves are derived, not
// transcribed.
var sbox, invSbox [256]byte

// xtime multiplies by x in GF(2^8) modulo x^8+x^4+x^3+x+1 (0x11B).
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1B
	}
	return b << 1
}

// gmul multiplies a and b in GF(2^8) mod 0x11B.
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

func init() {
	// Multiplicative inverses via brute force (the table is built once).
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gmul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	for i := 0; i < 256; i++ {
		x := inv[i]
		// Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
		var y byte
		for bit := 0; bit < 8; bit++ {
			v := (x >> uint(bit)) & 1
			v ^= (x >> uint((bit+4)%8)) & 1
			v ^= (x >> uint((bit+5)%8)) & 1
			v ^= (x >> uint((bit+6)%8)) & 1
			v ^= (x >> uint((bit+7)%8)) & 1
			v ^= (0x63 >> uint(bit)) & 1
			y |= v << uint(bit)
		}
		sbox[i] = y
		invSbox[y] = byte(i)
	}
	// T-tables: te[0][x] packs one MixColumns column of sbox[x]
	// (02·a, 01·a, 01·a, 03·a) most-significant row first; te[1..3] are the
	// byte rotations used by the other state rows.
	for i := 0; i < 256; i++ {
		a := sbox[i]
		w := uint32(xtime(a))<<24 | uint32(a)<<16 | uint32(a)<<8 | uint32(xtime(a)^a)
		te[0][i] = w
		te[1][i] = w>>8 | w<<24
		te[2][i] = w>>16 | w<<16
		te[3][i] = w>>24 | w<<8
	}
}

// te holds the encryption T-tables (built in init from the derived S-box).
var te [4][256]uint32

// SBox returns the forward S-box value (exported for the resource model and
// for tests that audit the derived tables).
func SBox(b byte) byte { return sbox[b] }

// Cipher is an expanded-key AES instance.
type Cipher struct {
	size KeySize
	// enc holds the round keys as 4-word blocks: enc[0] is the initial
	// AddRoundKey, enc[Nr] the final round key. This layout matches the
	// paper's Key Cache, which stores pre-computed round keys per channel.
	enc []bits.Block
}

// New expands key and returns a Cipher. The key length selects AES-128/192/256.
func New(key []byte) (*Cipher, error) {
	switch len(key) {
	case int(Key128), int(Key192), int(Key256):
	default:
		return nil, fmt.Errorf("aes: invalid key length %d", len(key))
	}
	ks := KeySize(len(key))
	return &Cipher{size: ks, enc: ExpandKey(key)}, nil
}

// MustNew is New for known-good keys; it panics on error.
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the cipher's key size.
func (c *Cipher) Size() KeySize { return c.size }

// RoundKeys exposes the expanded key schedule (the Key Cache contents).
func (c *Cipher) RoundKeys() []bits.Block { return c.enc }

// ExpandKey runs the FIPS-197 key expansion and returns Nr+1 round-key
// blocks. In the MCCP this work is performed by the Key Scheduler, which
// fills a core's Key Cache before the core may process a channel's packets.
func ExpandKey(key []byte) []bits.Block {
	nk := len(key) / 4
	nr := KeySize(len(key)).Rounds()
	var buf [4 * (14 + 1)]uint32 // AES-256's 15 round keys; stays on the stack
	w := buf[:4*(nr+1)]
	for i := 0; i < nk; i++ {
		w[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rcon := uint32(1) << 24
	for i := nk; i < len(w); i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ rcon
			rcon = uint32(xtime(byte(rcon>>24))) << 24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	out := make([]bits.Block, nr+1)
	for r := range out {
		out[r] = bits.BlockFromWords([4]uint32{w[4*r], w[4*r+1], w[4*r+2], w[4*r+3]})
	}
	return out
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[byte(w>>24)])<<24 | uint32(sbox[byte(w>>16)])<<16 |
		uint32(sbox[byte(w>>8)])<<8 | uint32(sbox[byte(w)])
}

// Encrypt enciphers one block. Only encryption exists in the paper's
// hardware ("Because AES-CCM and AES-GCM modes only use encryption mode, AES
// decryption algorithm was not implemented"); Decrypt below is provided for
// the software reference implementations and tests. The rounds run through
// the derived T-tables; EncryptRef is the structural reference it must
// match. (The device's engine is Core32, which does not come through here.)
func (c *Cipher) Encrypt(in bits.Block) bits.Block {
	nr := c.size.Rounds()
	k := c.enc[0]
	s0 := in.Word(0) ^ k.Word(0)
	s1 := in.Word(1) ^ k.Word(1)
	s2 := in.Word(2) ^ k.Word(2)
	s3 := in.Word(3) ^ k.Word(3)
	for r := 1; r < nr; r++ {
		k = c.enc[r]
		t0 := te[0][s0>>24] ^ te[1][s1>>16&0xFF] ^ te[2][s2>>8&0xFF] ^ te[3][s3&0xFF] ^ k.Word(0)
		t1 := te[0][s1>>24] ^ te[1][s2>>16&0xFF] ^ te[2][s3>>8&0xFF] ^ te[3][s0&0xFF] ^ k.Word(1)
		t2 := te[0][s2>>24] ^ te[1][s3>>16&0xFF] ^ te[2][s0>>8&0xFF] ^ te[3][s1&0xFF] ^ k.Word(2)
		t3 := te[0][s3>>24] ^ te[1][s0>>16&0xFF] ^ te[2][s1>>8&0xFF] ^ te[3][s2&0xFF] ^ k.Word(3)
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	k = c.enc[nr]
	o0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xFF])<<16 | uint32(sbox[s2>>8&0xFF])<<8 | uint32(sbox[s3&0xFF])
	o1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xFF])<<16 | uint32(sbox[s3>>8&0xFF])<<8 | uint32(sbox[s0&0xFF])
	o2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xFF])<<16 | uint32(sbox[s0>>8&0xFF])<<8 | uint32(sbox[s1&0xFF])
	o3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xFF])<<16 | uint32(sbox[s1>>8&0xFF])<<8 | uint32(sbox[s2&0xFF])
	return bits.BlockFromWords([4]uint32{o0 ^ k.Word(0), o1 ^ k.Word(1), o2 ^ k.Word(2), o3 ^ k.Word(3)})
}

// EncryptRef is the structural FIPS-197 round sequence (SubBytes, ShiftRows,
// MixColumns as separate audited transforms). Encrypt's T-table path is
// checked against it differentially.
func (c *Cipher) EncryptRef(in bits.Block) bits.Block {
	s := in.XOR(c.enc[0])
	nr := c.size.Rounds()
	for r := 1; r < nr; r++ {
		s = subBytes(s)
		s = shiftRows(s)
		s = mixColumns(s)
		s = s.XOR(c.enc[r])
	}
	s = subBytes(s)
	s = shiftRows(s)
	return s.XOR(c.enc[nr])
}

// Decrypt deciphers one block (inverse cipher, equivalent-order form).
func (c *Cipher) Decrypt(in bits.Block) bits.Block {
	nr := c.size.Rounds()
	s := in.XOR(c.enc[nr])
	for r := nr - 1; r > 0; r-- {
		s = invShiftRows(s)
		s = invSubBytes(s)
		s = s.XOR(c.enc[r])
		s = invMixColumns(s)
	}
	s = invShiftRows(s)
	s = invSubBytes(s)
	return s.XOR(c.enc[0])
}

// The state is held column-major in the block per FIPS-197: byte i of the
// block is state row i%4, column i/4.

func subBytes(b bits.Block) bits.Block {
	for i := range b {
		b[i] = sbox[b[i]]
	}
	return b
}

func invSubBytes(b bits.Block) bits.Block {
	for i := range b {
		b[i] = invSbox[b[i]]
	}
	return b
}

func shiftRows(b bits.Block) bits.Block {
	var r bits.Block
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			r[4*col+row] = b[4*((col+row)%4)+row]
		}
	}
	return r
}

func invShiftRows(b bits.Block) bits.Block {
	var r bits.Block
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			r[4*((col+row)%4)+row] = b[4*col+row]
		}
	}
	return r
}

func mixColumns(b bits.Block) bits.Block {
	var r bits.Block
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := b[4*c], b[4*c+1], b[4*c+2], b[4*c+3]
		r[4*c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		r[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		r[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		r[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
	return r
}

func invMixColumns(b bits.Block) bits.Block {
	var r bits.Block
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := b[4*c], b[4*c+1], b[4*c+2], b[4*c+3]
		r[4*c] = gmul(a0, 0x0E) ^ gmul(a1, 0x0B) ^ gmul(a2, 0x0D) ^ gmul(a3, 0x09)
		r[4*c+1] = gmul(a0, 0x09) ^ gmul(a1, 0x0E) ^ gmul(a2, 0x0B) ^ gmul(a3, 0x0D)
		r[4*c+2] = gmul(a0, 0x0D) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0E) ^ gmul(a3, 0x0B)
		r[4*c+3] = gmul(a0, 0x0B) ^ gmul(a1, 0x0D) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0E)
	}
	return r
}
