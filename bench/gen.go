package main

import (
	"encoding/binary"
	"math"
	"time"
)

// rng is SplitMix64, the benchmark's only source of randomness: every key,
// payload, nonce prefix and schedule below is a pure function of -seed. It is
// the benchmark's own (not arrivals.Rand) so a change to the program cannot
// change the inputs it is measured on.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// split derives an independent child stream named by label, so adding a
// consumer never shifts the bytes another consumer sees.
func (r *rng) split(label uint64) *rng {
	return &rng{s: r.next() ^ label*0xD6E8FEB86659FD93}
}

func (r *rng) fill(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.next())
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(b, tail[:])
	}
}

func (r *rng) bytes(n int) []byte {
	b := make([]byte, n)
	r.fill(b)
	return b
}

// payloadPool pre-generates n payloads of size bytes. Workloads cycle through
// the pool and make every packet unique through its nonce, which keeps
// generation out of the timed region.
func payloadPool(r *rng, n, size int) [][]byte {
	pool := make([][]byte, n)
	for i := range pool {
		pool[i] = r.bytes(size)
	}
	return pool
}

// stampNonce writes the packet counter into the tail of a seeded nonce
// prefix, in place: each stream owns its nonce buffer until its completion
// callback runs.
func stampNonce(nonce []byte, counter uint64) {
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], counter)
}

// fold is an FNV-1a style digest over 64-bit words: the determinism witness
// for output bytes and exact counts. Word-wise so that folding a 2 KB packet
// costs ~0.1% of simulating it.
type fold uint64

const foldInit fold = 0xcbf29ce484222325

func (f fold) word(w uint64) fold { return (f ^ fold(w)) * 0x100000001b3 }

func (f fold) bytes(b []byte) fold {
	for len(b) >= 8 {
		f = f.word(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return f.word(tail ^ uint64(len(b))<<56)
}

// openLoopSchedule returns the due offsets (ns from the start) of one
// connection's n requests: Poisson arrivals, the arrivals of independent
// users, scaled so that the last one is due exactly at span and the offered
// rate is exactly n/span whatever the seed drew. (A fixed interval would
// lock the two connections into a seed-dependent phase, and the batching
// they then share or miss moves the median latency by half; exponential
// gaps have no phase.)
func openLoopSchedule(r *rng, n int, span time.Duration) []int64 {
	at := make([]float64, n)
	sum := 0.0
	for i := range at {
		u := float64(r.next()>>11) / (1 << 53) // uniform in [0, 1)
		sum += -math.Log(1 - u)
		at[i] = sum
	}
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(at[i] / sum * float64(span))
	}
	return due
}
