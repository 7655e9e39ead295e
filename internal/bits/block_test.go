package bits

import (
	"testing"
	"testing/quick"
)

func TestHexRoundTrip(t *testing.T) {
	b := BlockFromHex("00112233445566778899aabbccddeeff")
	if b.Hex() != "00112233445566778899aabbccddeeff" {
		t.Errorf("hex roundtrip = %s", b.Hex())
	}
	if b[0] != 0x00 || b[15] != 0xFF {
		t.Error("byte order: block must be big-endian, MSB first")
	}
}

func TestWords(t *testing.T) {
	b := BlockFromHex("00112233445566778899aabbccddeeff")
	if b.Word(0) != 0x00112233 || b.Word(3) != 0xccddeeff {
		t.Errorf("words = %x", b.Words())
	}
	if BlockFromWords(b.Words()) != b {
		t.Error("words roundtrip failed")
	}
}

func TestXORProperties(t *testing.T) {
	if err := quick.Check(func(a, b Block) bool {
		return a.XOR(b) == b.XOR(a) && a.XOR(a).IsZero() && a.XOR(Block{}) == a
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestInc32(t *testing.T) {
	b := BlockFromHex("000000000000000000000000ffffffff")
	if got := b.Inc32(1); got.Hex() != "00000000000000000000000000000000" {
		t.Errorf("Inc32 wrap = %s", got.Hex())
	}
}

func TestByteMask(t *testing.T) {
	full := ByteMask(0xFFFF)
	for i := range full {
		if full[i] != 0xFF {
			t.Fatal("full mask must keep every byte")
		}
	}
	if !ByteMask(0).IsZero() {
		t.Fatal("zero mask must clear every byte")
	}
	m := ByteMask(0x8001)
	if m[0] != 0xFF || m[15] != 0xFF || m[1] != 0 || m[14] != 0 {
		t.Errorf("mask 0x8001 = %s", m.Hex())
	}
}

func TestMaskForLen(t *testing.T) {
	cases := map[int]uint16{0: 0x0000, 1: 0x8000, 8: 0xFF00, 15: 0xFFFE, 16: 0xFFFF}
	for n, want := range cases {
		if got := MaskForLen(n); got != want {
			t.Errorf("MaskForLen(%d) = %#04x, want %#04x", n, got, want)
		}
	}
	// The mask MaskForLen(n) keeps exactly the first n bytes.
	if got := ByteMask(MaskForLen(5)).Hex(); got != "ffffffffff0000000000000000000000" {
		t.Errorf("ByteMask(MaskForLen(5)) = %s", got)
	}
}

func TestPadFlatten(t *testing.T) {
	p := []byte{1, 2, 3}
	bs := PadBlocks(p)
	if len(bs) != 1 || bs[0][0] != 1 || bs[0][3] != 0 {
		t.Errorf("PadBlocks short = %v", bs)
	}
	if got := PadBlocks(nil); len(got) != 0 {
		t.Error("PadBlocks(nil) should be empty")
	}
	if got := PadBlocks(make([]byte, 16)); len(got) != 1 {
		t.Error("exact block should pad to one block")
	}
	if got := PadBlocks(make([]byte, 17)); len(got) != 2 {
		t.Error("17 bytes should pad to two blocks")
	}
	flat := Flatten(bs)
	if len(flat) != 16 || flat[0] != 1 {
		t.Errorf("Flatten = %x", flat)
	}
}
