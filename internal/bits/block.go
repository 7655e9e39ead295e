// Package bits provides the 128-bit block type shared by every layer of the
// MCCP model: the Cryptographic Unit bank registers, the AES and GHASH cores,
// and the block-cipher modes of operation.
//
// A Block is stored big-endian: Block[0] is the most significant byte, which
// matches the byte ordering of FIPS-197, SP 800-38C/D and the paper's
// datapath (the unit moves 128-bit words as four 32-bit sub-words, most
// significant first).
package bits

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// BlockBytes is the size of a cipher block in bytes.
const BlockBytes = 16

// Block is a 128-bit datapath word.
type Block [BlockBytes]byte

// BlockFromHex parses a 32-hex-digit string. It panics on malformed input;
// it is intended for test vectors and constants.
func BlockFromHex(s string) Block {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != BlockBytes {
		panic(fmt.Sprintf("bits: bad block hex %q", s))
	}
	var out Block
	copy(out[:], b)
	return out
}

// Hex returns the block as 32 lowercase hex digits.
func (b Block) Hex() string { return hex.EncodeToString(b[:]) }

// halves returns the block as two big-endian 64-bit halves, most
// significant first. XOR and IsZero compute on these, which suits a block
// that lives as a value in memory (a mode's input or output). A register
// that is rewritten and read back on every step should be kept as two
// uint64 instead: a [16]byte written as two 8-byte halves and then copied
// is read with one 16-byte load, which has to wait until both stores reach
// the cache (the Cryptographic Unit's bank registers are kept that way).
func (b *Block) halves() (hi, lo uint64) {
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

func blockFromHalves(hi, lo uint64) Block {
	var r Block
	binary.BigEndian.PutUint64(r[:8], hi)
	binary.BigEndian.PutUint64(r[8:], lo)
	return r
}

// XOR returns a ^ o.
func (b Block) XOR(o Block) Block {
	bh, bl := b.halves()
	oh, ol := o.halves()
	return blockFromHalves(bh^oh, bl^ol)
}

// IsZero reports whether every byte is zero.
func (b Block) IsZero() bool {
	hi, lo := b.halves()
	return hi|lo == 0
}

// Word returns 32-bit sub-word i (0 = most significant), matching the
// Cryptographic Unit's 2-bit sub-word counter.
func (b Block) Word(i int) uint32 {
	return binary.BigEndian.Uint32(b[4*i : 4*i+4])
}

// Words returns the four 32-bit sub-words, most significant first.
func (b Block) Words() [4]uint32 {
	return [4]uint32{
		binary.BigEndian.Uint32(b[0:4]), binary.BigEndian.Uint32(b[4:8]),
		binary.BigEndian.Uint32(b[8:12]), binary.BigEndian.Uint32(b[12:16]),
	}
}

// BlockFromWords assembles a block from four 32-bit sub-words.
func BlockFromWords(w [4]uint32) Block {
	var b Block
	binary.BigEndian.PutUint32(b[0:4], w[0])
	binary.BigEndian.PutUint32(b[4:8], w[1])
	binary.BigEndian.PutUint32(b[8:12], w[2])
	binary.BigEndian.PutUint32(b[12:16], w[3])
	return b
}

// Inc32 adds delta to the 32 least significant bits (GCM's inc32). The
// paper's hardware only increments 16 bits because packet payloads are
// bounded by the 2 KB FIFO (<= 128 blocks); that 16-bit Inc core is the
// Cryptographic Unit's INC, and Inc32 serves the reference-mode
// implementations.
func (b Block) Inc32(delta uint32) Block {
	r := b
	v := binary.BigEndian.Uint32(r[12:16])
	binary.BigEndian.PutUint32(r[12:16], v+delta)
	return r
}

// ByteMask expands a 16-bit mask into a block mask: bit 15 of m controls
// byte 0 (most significant), bit 0 controls byte 15. A set bit keeps the
// byte, a clear bit zeroes it. This mirrors the Cryptographic Unit's
// Xor/Comparator mask register, which lets firmware zero the tail of a
// partial final block.
func ByteMask(m uint16) Block {
	var r Block
	for i := 0; i < BlockBytes; i++ {
		if m&(1<<uint(15-i)) != 0 {
			r[i] = 0xFF
		}
	}
	return r
}

// MaskForLen returns the ByteMask keeping the first n bytes (0 <= n <= 16).
func MaskForLen(n int) uint16 {
	if n < 0 || n > BlockBytes {
		panic(fmt.Sprintf("bits: mask length %d out of range", n))
	}
	if n == 0 {
		return 0
	}
	return ^uint16(0) << uint(16-n)
}

// PadBlocks zero-pads p to a whole number of blocks and returns the block
// slice. An empty input yields an empty slice.
func PadBlocks(p []byte) []Block {
	n := (len(p) + BlockBytes - 1) / BlockBytes
	out := make([]Block, n)
	for i := range out {
		copy(out[i][:], p[i*BlockBytes:min(len(p), (i+1)*BlockBytes)])
	}
	return out
}

// AppendPadBlocks appends p's zero-padded 16-byte blocks to dst and
// returns the extended slice — the allocation-free form of PadBlocks for
// callers staging into a recycled buffer. Each appended block is fully
// written (stale bytes in a recycled dst cannot leak into the padding).
func AppendPadBlocks(dst []Block, p []byte) []Block {
	n := (len(p) + BlockBytes - 1) / BlockBytes
	for i := 0; i < n; i++ {
		var b Block
		copy(b[:], p[i*BlockBytes:min(len(p), (i+1)*BlockBytes)])
		dst = append(dst, b)
	}
	return dst
}

// Flatten concatenates blocks into a byte slice.
func Flatten(bs []Block) []byte {
	out := make([]byte, 0, len(bs)*BlockBytes)
	for _, b := range bs {
		out = append(out, b[:]...)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
