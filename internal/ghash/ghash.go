// Package ghash implements the GHASH universal hash over GF(2^128) used by
// GCM (NIST SP 800-38D), together with a timing model of the digit-serial
// multiplier the paper instantiates (Lemsitzer et al., CHES 2007: 3-bit
// digits, one 128-bit multiplication in 43 clock cycles).
//
// GF(2^128) elements use GCM's reflected convention: bit 0 of byte 0 of a
// block is the coefficient of x^0, and the field polynomial is
// x^128 + x^7 + x^2 + x + 1.
package ghash

import (
	"encoding/binary"

	"mccp/internal/bits"
)

// Mul returns x*y in GF(2^128) under the GCM bit convention. This is the
// bit-serial reference used for correctness; MulDigitSerial below models the
// hardware datapath and must agree with it (a property test checks this).
func Mul(x, y bits.Block) bits.Block {
	var z bits.Block
	v := y
	for i := 0; i < 128; i++ {
		// Bit i of x, in GCM order: byte i/8, MSB first within the byte.
		if x[i/8]&(0x80>>uint(i%8)) != 0 {
			z = z.XOR(v)
		}
		v = shiftRight1(v)
	}
	return z
}

// shiftRight1 multiplies v by x: a right shift in the reflected
// representation, with reduction by the field polynomial (XOR of 0xE1 into
// the top byte) when the bit shifted out of position 127 is set.
func shiftRight1(v bits.Block) bits.Block {
	lsb := v[15] & 1
	var r bits.Block
	var carry byte
	for i := 0; i < 16; i++ {
		b := v[i]
		r[i] = b>>1 | carry
		carry = b << 7
	}
	if lsb != 0 {
		r[0] ^= 0xE1
	}
	return r
}

// GHASH computes GHASH_H over the given blocks: Y_0 = 0,
// Y_i = (Y_{i-1} XOR X_i) * H.
func GHASH(h bits.Block, blocks []bits.Block) bits.Block {
	var y bits.Block
	for _, x := range blocks {
		y = Mul(y.XOR(x), h)
	}
	return y
}

// DefaultDigitBits is the digit width of the paper's multiplier ("digit-
// serial multiplication is made using 3-bit digits and it is computed in 43
// clock cycles").
const DefaultDigitBits = 3

// DigitSerialCycles returns the cycle count of one 128-bit multiplication
// with the given digit width: ceil(128/d) digits plus a one-cycle load stage.
// For d=3 this is ceil(128/3)+0 = 43, matching the paper.
func DigitSerialCycles(digitBits int) uint64 {
	if digitBits <= 0 || digitBits > 128 {
		panic("ghash: digit width out of range")
	}
	return uint64((128 + digitBits - 1) / digitBits)
}

// MulDigitSerial is the digit-serial multiplier's functional model. The
// digit width only affects the cycle count (DigitSerialCycles); the product
// is the plain GF(2^128) product for every width, so the value is computed
// by the fast windowed multiply and is bit-identical to Mul (a property
// test checks this across widths).
func MulDigitSerial(x, y bits.Block, digitBits int) bits.Block {
	if digitBits <= 0 || digitBits > 128 {
		panic("ghash: digit width out of range")
	}
	var t mulTable
	yh, yl := halves(y)
	t.init(fieldEl{yh, yl})
	xh, xl := halves(x)
	z := t.mul(fieldEl{xh, xl})
	return fromHalves(z.low, z.high)
}

// fieldEl is a GF(2^128) element split into two big-endian uint64 halves,
// still in GCM's reflected bit convention: low holds bytes 0-7, which carry
// the low-degree coefficients.
type fieldEl struct{ low, high uint64 }

// halves splits a block into its big-endian 64-bit halves, bytes 0-7 first.
func halves(b bits.Block) (hi, lo uint64) {
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

func fromHalves(hi, lo uint64) bits.Block {
	var b bits.Block
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	return b
}

// elDouble multiplies by x (a right shift in the reflected representation,
// reducing by the field polynomial when a bit falls off position 127).
func elDouble(e fieldEl) fieldEl {
	msbSet := e.high&1 == 1
	var d fieldEl
	d.high = e.high>>1 | e.low<<63
	d.low = e.low >> 1
	if msbSet {
		d.low ^= 0xe100000000000000
	}
	return d
}

// reductionTable folds the four bits shifted out of a windowed step back
// into the top of the element (the standard 4-bit GHASH reduction).
var reductionTable = [16]uint16{
	0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
	0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
}

// reverse4 reverses a 4-bit value (table indices are bit-reversed so the
// multiply loop can consume plain 4-bit digits).
func reverse4(i int) int {
	return i&8>>3 | i&4>>1 | i&2<<1 | i&1<<3
}

// mulTable holds the 16 small multiples of a fixed multiplicand for the
// 4-bit windowed multiply. The GHASH core caches one per LoadH, so the
// per-block cost is 32 table steps instead of 128 shift-and-adds.
type mulTable [16]fieldEl

func (t *mulTable) init(x fieldEl) {
	t[reverse4(1)] = x
	for i := 2; i < 16; i += 2 {
		d := elDouble(t[reverse4(i/2)])
		t[reverse4(i)] = d
		t[reverse4(i+1)] = fieldEl{low: d.low ^ x.low, high: d.high ^ x.high}
	}
}

func (t *mulTable) mul(e fieldEl) fieldEl {
	var z fieldEl
	for i := 0; i < 2; i++ {
		word := e.high
		if i == 1 {
			word = e.low
		}
		for j := 0; j < 64; j += 4 {
			msw := z.high & 0xf
			z.high = z.high>>4 | z.low<<60
			z.low = z.low>>4 ^ uint64(reductionTable[msw])<<48
			m := t[word&0xf]
			z.low ^= m.low
			z.high ^= m.high
			word >>= 4
		}
	}
	return z
}

// Core models the GHASH core inside each Cryptographic Unit: it holds the
// hash subkey H (loaded by the LOADH instruction) and an accumulator that
// SGFM updates in the background while FGFM reads it out. One SGFM costs
// DigitSerialCycles(DigitBits) cycles.
type Core struct {
	// DigitBits selects the multiplier digit width; zero means DefaultDigitBits.
	DigitBits int

	htable    mulTable // windowed multiples of H, rebuilt by LoadH
	acc       fieldEl
	busyUntil uint64
	busy      bool
}

// NewCore returns a core with the paper's 3-bit-digit multiplier.
func NewCore() *Core { return &Core{DigitBits: DefaultDigitBits} }

// LoadH installs the hash subkey and clears the accumulator; this is the
// LOADH instruction ("loads the computed H constant into the GHASH core").
func (c *Core) LoadH(h bits.Block) { c.LoadH64(halves(h)) }

// LoadH64 is LoadH with the subkey given as two big-endian 64-bit halves,
// hi holding bytes 0-7: the form the Cryptographic Unit's bank registers
// keep, so LOADH, SGFM and FGFM never go through a bits.Block.
func (c *Core) LoadH64(hi, lo uint64) {
	c.htable.init(fieldEl{hi, lo})
	c.acc = fieldEl{}
	c.busy = false
}

// Cycles returns the latency of one GHASH iteration.
func (c *Core) Cycles() uint64 {
	d := c.DigitBits
	if d == 0 {
		d = DefaultDigitBits
	}
	return DigitSerialCycles(d)
}

// Start begins one iteration acc = (acc XOR x) * H at absolute cycle now and
// returns the completion cycle (the SGFM instruction).
func (c *Core) Start(now uint64, x bits.Block) uint64 {
	hi, lo := halves(x)
	return c.Start64(now, hi, lo)
}

// Start64 is Start with x given as two halves, as in LoadH64.
func (c *Core) Start64(now uint64, hi, lo uint64) uint64 {
	// The digit width sets the latency only; the product itself comes from
	// the cached windowed table for H (bit-identical, see MulDigitSerial).
	c.acc = c.htable.mul(fieldEl{c.acc.low ^ hi, c.acc.high ^ lo})
	c.busyUntil = now + c.Cycles()
	c.busy = true
	return c.busyUntil
}

// Busy reports whether an iteration is in flight.
func (c *Core) Busy() bool { return c.busy }

// ReadyAt returns the completion cycle of the iteration in flight.
func (c *Core) ReadyAt() uint64 { return c.busyUntil }

// Collect returns the accumulator (the FGFM instruction) and marks the core
// idle. The accumulator is preserved so hashing can continue afterwards
// (GCM reads the running MAC only once, after the lengths block).
func (c *Core) Collect() bits.Block { return fromHalves(c.Collect64()) }

// Collect64 is Collect returning the accumulator as two halves, as in
// LoadH64.
func (c *Core) Collect64() (hi, lo uint64) {
	c.busy = false
	return c.acc.low, c.acc.high
}
