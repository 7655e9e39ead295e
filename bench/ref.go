package main

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"

	"mccp/internal/bits"
	"mccp/internal/cryptocore"
	"mccp/internal/modes"
)

// stdBlock adapts crypto/aes to modes.BlockCipher, so the CCM reference runs
// the repo's mode formatting over the standard library's cipher rather than
// over the AES model the device itself uses.
type stdBlock struct{ c cipher.Block }

func (b stdBlock) Encrypt(in bits.Block) bits.Block {
	var out bits.Block
	b.c.Encrypt(out[:], in[:])
	return out
}

// reference seals packets independently of the device, from the key bytes
// the benchmark itself installed.
type reference struct {
	family cryptocore.Family
	tagLen int
	block  cipher.Block
	gcm    cipher.AEAD
}

func newReference(family cryptocore.Family, key []byte, tagLen int) (*reference, error) {
	block, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	r := &reference{family: family, tagLen: tagLen, block: block}
	switch family {
	case cryptocore.FamilyGCM:
		if r.gcm, err = cipher.NewGCMWithTagSize(block, tagLen); err != nil {
			return nil, err
		}
	case cryptocore.FamilyCCM:
	default:
		return nil, fmt.Errorf("bench: no reference for family %v", family)
	}
	return r, nil
}

// seal returns ciphertext||tag for one packet.
func (r *reference) seal(nonce, payload []byte) ([]byte, error) {
	if r.gcm != nil {
		return r.gcm.Seal(nil, nonce, payload, nil), nil
	}
	return modes.CCMSeal(stdBlock{r.block}, nonce, nil, payload, r.tagLen)
}
