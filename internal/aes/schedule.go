package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"

	"mccp/internal/bits"
)

// Schedule is one session key expanded once for both things the model does
// with it: the FIPS-197 round keys the Key Scheduler writes into a core's
// Key Cache (what the hardware holds, and what the timing model charges
// for), and the platform block function Core32 computes values with. Both
// come from the same key bytes, which the Schedule does not retain.
type Schedule struct {
	size KeySize
	rk   []bits.Block
	blk  cipher.Block
}

// NewSchedule expands key (16, 24 or 32 bytes).
func NewSchedule(key []byte) (*Schedule, error) {
	blk, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aes: invalid key length %d", len(key))
	}
	return &Schedule{size: KeySize(len(key)), rk: ExpandKey(key), blk: blk}, nil
}

// MustNewSchedule is NewSchedule for known-good keys; it panics on error.
func MustNewSchedule(key []byte) *Schedule {
	s, err := NewSchedule(key)
	if err != nil {
		panic(err)
	}
	return s
}

// Size returns the key size.
func (s *Schedule) Size() KeySize { return s.size }

// RoundKeys returns the Nr+1 round-key blocks (the Key Cache contents).
func (s *Schedule) RoundKeys() []bits.Block { return s.rk }
