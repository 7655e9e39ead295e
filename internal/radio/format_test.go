package radio_test

import (
	"testing"

	"mccp/internal/bits"
	"mccp/internal/cryptocore"
	"mccp/internal/firmware"
	"mccp/internal/modes"
	"mccp/internal/radio"
)

func TestFrameGCMEncLayout(t *testing.T) {
	nonce := make([]byte, 12)
	nonce[0] = 0xAA
	aad := make([]byte, 20)     // 2 padded blocks
	payload := make([]byte, 40) // 3 blocks, 8-byte tail
	f, err := radio.FrameGCMEnc(nonce, aad, payload)
	if err != nil {
		t.Fatal(err)
	}
	// [J0][AAD x2][PT x3][LEN] = 7 blocks.
	if len(f.In) != 7 {
		t.Fatalf("stream = %d blocks", len(f.In))
	}
	if f.In[0] != modes.GCMJ0(nonce) {
		t.Error("first block must be J0")
	}
	if f.In[6] != modes.GCMLengths(20, 40) {
		t.Error("last block must be the lengths block")
	}
	if f.Task.HdrBlocks != 2 || f.Task.DataBlocks != 3 {
		t.Errorf("task = %+v", f.Task)
	}
	if f.Task.LastMask != bits.MaskForLen(8) {
		t.Errorf("last mask = %#x", f.Task.LastMask)
	}
	if f.OutWords != 16 { // 3 CT blocks + tag
		t.Errorf("out words = %d", f.OutWords)
	}
	// The formatter's task must agree with the scheduler's planner — the
	// two sides of the FIFO contract.
	planned, err := cryptocore.PlanTasks(cryptocore.FamilyGCM, true, false, 20, 40, 16)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Tasks()[0] != f.Task {
		t.Errorf("planner %+v != formatter %+v", planned.Tasks()[0], f.Task)
	}
}

func TestFrameCCMEncLayout(t *testing.T) {
	nonce := make([]byte, 13)
	aad := make([]byte, 5)
	payload := make([]byte, 16)
	f, err := radio.FrameCCMEnc(nonce, aad, payload, 8)
	if err != nil {
		t.Fatal(err)
	}
	// [A0][B0][AADenc x1][PT x1][A0] = 5 blocks, A0 duplicated at the end
	// so the firmware can recompute S0 with only four bank registers.
	if len(f.In) != 5 {
		t.Fatalf("stream = %d blocks", len(f.In))
	}
	if f.In[0] != f.In[4] {
		t.Error("A0 must be duplicated at the stream end")
	}
	b0, a0, err := modes.CCMB0A0(nonce, len(aad), len(payload), 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.In[0] != a0 || f.In[1] != b0 {
		t.Error("A0/B0 header wrong")
	}
	if b0[0]&0x40 == 0 {
		t.Error("B0 Adata flag must be set when AAD present")
	}
}

func TestFrameCCMNoAADFlag(t *testing.T) {
	b0, _, err := modes.CCMB0A0(make([]byte, 13), 0, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b0[0]&0x40 != 0 {
		t.Error("Adata flag set with empty AAD")
	}
}

func TestFrameSizeLimits(t *testing.T) {
	big := make([]byte, radio.MaxPayload+1)
	if _, err := radio.FrameGCMEnc(make([]byte, 12), nil, big); err == nil {
		t.Error("oversized GCM payload accepted")
	}
	if _, err := radio.FrameCCMEnc(make([]byte, 13), big, nil, 8); err == nil {
		t.Error("oversized AAD accepted")
	}
	if _, err := radio.FrameGCMDec(make([]byte, 12), nil, nil, make([]byte, 17)); err == nil {
		t.Error("17-byte tag accepted")
	}
	if _, err := radio.FrameCCMDec(make([]byte, 13), nil, nil, make([]byte, 4), 8); err == nil {
		t.Error("tag length mismatch accepted")
	}
	blocks := make([]bits.Block, radio.MaxPayload/16+1)
	if _, err := radio.FrameCBCMAC(blocks); err == nil {
		t.Error("oversized CBC-MAC input accepted")
	}
}

func TestFrameCCM2StreamsBothHalves(t *testing.T) {
	payload := make([]byte, 48)
	mac, ctr, err := radio.FrameCCM2(true, make([]byte, 13), make([]byte, 4), payload, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	// MAC half: [B0][AADenc][PT x3]; CTR half: [A0][PT x3][A0].
	if len(mac.In) != 5 || len(ctr.In) != 5 {
		t.Fatalf("mac=%d ctr=%d blocks", len(mac.In), len(ctr.In))
	}
	if mac.Task.Mode != firmware.ModeCCM2MacEnc || ctr.Task.Mode != firmware.ModeCCM2CtrEnc {
		t.Errorf("modes = %v/%v", mac.Task.Mode, ctr.Task.Mode)
	}
	if mac.OutWords != 0 {
		t.Error("MAC half produces no FIFO output (shift register only)")
	}
	// Decrypt: the MAC half receives plaintext over the shift register, so
	// its stream carries no payload.
	macD, ctrD, err := radio.FrameCCM2(false, make([]byte, 13), make([]byte, 4), payload, make([]byte, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(macD.In) != 2 { // B0 + AADenc only
		t.Errorf("decrypt MAC stream = %d blocks", len(macD.In))
	}
	if len(ctrD.In) != 6 { // A0 + CT x3 + A0 + TAG
		t.Errorf("decrypt CTR stream = %d blocks", len(ctrD.In))
	}
}

func TestPlanTasksValidation(t *testing.T) {
	if _, err := cryptocore.PlanTasks(cryptocore.FamilyGCM, true, false, 0, 2049, 16); err == nil {
		t.Error("129-block payload accepted")
	}
	if _, err := cryptocore.PlanTasks(cryptocore.FamilyCBCMAC, true, false, 0, 17, 0); err == nil {
		t.Error("partial-block CBC-MAC accepted")
	}
	if _, err := cryptocore.PlanTasks(cryptocore.FamilyHash, true, false, 0, 40, 0); err == nil {
		t.Error("unpadded hash input accepted")
	}
	if _, err := cryptocore.PlanTasks(cryptocore.FamilyGCM, true, false, -1, 0, 16); err == nil {
		t.Error("negative length accepted")
	}
	// Split plan returns MAC half then CTR half.
	plan, err := cryptocore.PlanTasks(cryptocore.FamilyCCM, false, true, 8, 64, 8)
	ts := plan.Tasks()
	if err != nil || len(ts) != 2 {
		t.Fatalf("split plan: %v %v", ts, err)
	}
	if ts[0].Mode != firmware.ModeCCM2MacDec || ts[1].Mode != firmware.ModeCCM2CtrDec {
		t.Errorf("split decrypt modes = %v/%v", ts[0].Mode, ts[1].Mode)
	}
}
