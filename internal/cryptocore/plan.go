package cryptocore

import (
	"fmt"

	"mccp/internal/bits"
	"mccp/internal/firmware"
)

// Family identifies a channel's block-cipher mode of operation. The Task
// Scheduler maps (family, direction, core assignment) to firmware modes.
type Family uint8

// Supported families (paper §IV.D: GCM, CCM, CTR, CBC-MAC).
const (
	FamilyGCM Family = iota
	FamilyCCM
	FamilyCTR
	FamilyCBCMAC
	FamilyHash // Whirlpool hashing after partial reconfiguration
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyGCM:
		return "GCM"
	case FamilyCCM:
		return "CCM"
	case FamilyCTR:
		return "CTR"
	case FamilyCBCMAC:
		return "CBC-MAC"
	case FamilyHash:
		return "HASH"
	}
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// Plan is a packet's task plan: one task, or for a split CCM request the
// CBC-MAC half first and the CTR half second. It is a value, so planning a
// packet allocates nothing.
type Plan struct {
	tasks [2]Task
	n     int
}

// Tasks returns the planned tasks, a view of p's own array.
func (p *Plan) Tasks() []Task { return p.tasks[:p.n] }

// Last returns the task that produces the output: the only task, or the CTR
// half of a split.
func (p *Plan) Last() Task { return p.tasks[p.n-1] }

func single(t Task) Plan { return Plan{tasks: [2]Task{t}, n: 1} }

// PlanTasks computes the per-core task parameters for a packet: the block
// counts and byte masks the Task Scheduler writes into core parameter
// registers. It is the single source of truth shared by the scheduler and
// the communication controller's formatter, so the two sides of the FIFO
// framing contract cannot drift apart.
//
// For a split CCM request it plans two tasks: the CBC-MAC half first, then
// the CTR half. aadLen and dataLen are byte lengths (dataLen counts
// ciphertext bytes for decryption).
func PlanTasks(f Family, encrypt, split bool, aadLen, dataLen, tagLen int) (Plan, error) {
	if dataLen < 0 || aadLen < 0 {
		return Plan{}, fmt.Errorf("cryptocore: negative length")
	}
	dataBlocks, lastMask := blockParams(dataLen)
	if dataBlocks > 128 {
		return Plan{}, fmt.Errorf("cryptocore: %d data blocks exceed the 2 KB packet FIFO", dataBlocks)
	}

	switch f {
	case FamilyGCM:
		hdr := (aadLen + 15) / 16
		t := Task{
			Mode:       firmware.ModeGCMEnc,
			HdrBlocks:  uint8(hdr),
			DataBlocks: uint8(dataBlocks),
			LastMask:   lastMask,
		}
		if !encrypt {
			t.Mode = firmware.ModeGCMDec
			t.TagMask = bits.MaskForLen(tagLen)
		}
		return single(t), nil

	case FamilyCCM:
		hdr := ccmHdrBlocks(aadLen)
		if !split {
			t := Task{
				Mode:       firmware.ModeCCMEnc,
				HdrBlocks:  uint8(hdr),
				DataBlocks: uint8(dataBlocks),
				LastMask:   lastMask,
			}
			if !encrypt {
				t.Mode = firmware.ModeCCMDec
				t.TagMask = bits.MaskForLen(tagLen)
			}
			return single(t), nil
		}
		mac := Task{
			Mode:       firmware.ModeCCM2MacEnc,
			HdrBlocks:  uint8(hdr),
			DataBlocks: uint8(dataBlocks),
			LastMask:   0xFFFF,
		}
		ctr := Task{
			Mode:       firmware.ModeCCM2CtrEnc,
			DataBlocks: uint8(dataBlocks),
			LastMask:   lastMask,
			TagMask:    bits.MaskForLen(tagLen),
		}
		if !encrypt {
			mac.Mode = firmware.ModeCCM2MacDec
			ctr.Mode = firmware.ModeCCM2CtrDec
		}
		return Plan{tasks: [2]Task{mac, ctr}, n: 2}, nil

	case FamilyCTR:
		return single(Task{
			Mode:       firmware.ModeCTR,
			DataBlocks: uint8(dataBlocks),
			LastMask:   lastMask,
		}), nil

	case FamilyCBCMAC:
		if lastMask != 0xFFFF && dataLen > 0 {
			return Plan{}, fmt.Errorf("cryptocore: CBC-MAC requires whole blocks (got %d bytes)", dataLen)
		}
		return single(Task{
			Mode:       firmware.ModeCBCMAC,
			DataBlocks: uint8(dataBlocks),
			LastMask:   0xFFFF,
		}), nil

	case FamilyHash:
		if dataLen%16 != 0 || dataLen == 0 {
			return Plan{}, fmt.Errorf("cryptocore: hash input must be pre-padded to 512-bit blocks")
		}
		return single(Task{
			Mode:       firmware.ModeHash,
			DataBlocks: uint8(dataBlocks),
			LastMask:   0xFFFF,
		}), nil
	}
	return Plan{}, fmt.Errorf("cryptocore: unknown family %v", f)
}

// blockParams returns ceil(n/16) and the byte mask of the final block.
func blockParams(n int) (int, uint16) {
	nb := (n + bits.BlockBytes - 1) / bits.BlockBytes
	tail := n % bits.BlockBytes
	if tail == 0 && n > 0 {
		tail = bits.BlockBytes
	}
	return nb, bits.MaskForLen(tail)
}

// ccmHdrBlocks returns the number of 16-byte blocks of CCM's encoded AAD
// (2-byte length prefix below 0xFF00, 6-byte prefix above).
func ccmHdrBlocks(aadLen int) int {
	if aadLen == 0 {
		return 0
	}
	enc := 2 + aadLen
	if aadLen >= 0xFF00 {
		enc = 6 + aadLen
	}
	return (enc + 15) / 16
}

// OutWords returns the number of 32-bit output words a task produces on
// success.
func OutWords(t Task) int {
	switch t.Mode {
	case firmware.ModeGCMEnc, firmware.ModeCCMEnc, firmware.ModeCCM2CtrEnc:
		return 4*int(t.DataBlocks) + 4
	case firmware.ModeGCMDec, firmware.ModeCCMDec, firmware.ModeCTR, firmware.ModeCCM2CtrDec:
		return 4 * int(t.DataBlocks)
	case firmware.ModeCBCMAC:
		return 4
	case firmware.ModeHash:
		return 16 // 512-bit digest
	case firmware.ModeCCM2MacEnc, firmware.ModeCCM2MacDec:
		return 0 // MAC travels over the shift register
	}
	return 0
}
