// Package arrivals is the open-loop workload engine: arrival processes
// scheduled as virtual-time events on the simulation engine, feeding
// packets at a configured offered rate regardless of device backpressure.
// Every experiment before this package was closed-loop — the generator
// refilled the device as fast as it drained, so loss and latency could
// never be measured *as a function of offered load*. An open-loop Source
// keeps emitting on its own clock; what the downstream shaper does with
// the packet (queue it, shed it, expire it) is the measurement.
//
// Determinism: every random draw comes from a splittable SplitMix64
// stream (Rand), so a seed fully determines every arrival time. Two runs
// with the same seed are bit-identical, on the fast simulation kernel and
// on the cycle-by-cycle reference path alike — the differential
// determinism tests assert it.
package arrivals

import (
	"fmt"
	"math"
	"strings"

	"mccp/internal/cryptocore"
	"mccp/internal/qos"
	"mccp/internal/sim"
)

// Rand is a splittable SplitMix64 PRNG. Unlike math/rand's single shared
// stream, a Rand can Split off independent child streams, so every source
// in a multi-class, multi-shard workload draws from its own deterministic
// sequence regardless of how the other sources interleave.
type Rand struct{ state uint64 }

// NewRand seeds a stream. Any seed is fine, including 0.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits (SplitMix64 step).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split derives an independent child stream, advancing this one by one
// draw. Children of children are independent too.
func (r *Rand) Split() *Rand { return &Rand{state: r.Uint64() ^ 0x6A09E667F3BCC909} }

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Exp returns a unit-mean exponential draw (inverse-CDF on a uniform).
func (r *Rand) Exp() float64 { return -math.Log(1 - r.Float64()) }

// Process produces interarrival gaps in cycles. Stateful processes (OnOff,
// Trace) must not be shared between sources — every Source gets a fresh
// instance, like the qos drain policies.
type Process interface {
	Name() string
	// Gap returns the cycles until the next arrival (>= 1, so a source
	// always makes progress).
	Gap(r *Rand) sim.Time
}

// Process names for ByName.
const (
	ProcDeterministic = "deterministic"
	ProcPoisson       = "poisson"
	ProcOnOff         = "onoff"
)

// Names lists the selectable arrival processes (Trace is constructed
// programmatically from recorded gaps, not by name).
func Names() []string { return []string{ProcDeterministic, ProcPoisson, ProcOnOff} }

// ByName returns a constructor for fresh process instances with the given
// mean interarrival gap in cycles. The factory form matters: every source
// needs its own instance, and the mean is the only knob an offered-load
// sweep turns.
func ByName(name string, meanGap float64) (func() Process, error) {
	if meanGap <= 0 {
		return nil, fmt.Errorf("arrivals: mean interarrival gap must be positive, got %v", meanGap)
	}
	switch name {
	case "", ProcPoisson:
		return func() Process { return Poisson{Mean: meanGap} }, nil
	case ProcDeterministic:
		return func() Process { return Deterministic{Interval: sim.Time(math.Max(1, math.Round(meanGap)))} }, nil
	case ProcOnOff:
		return func() Process { return NewOnOff(meanGap, DefaultDuty, DefaultBurstLen) }, nil
	}
	return nil, fmt.Errorf("arrivals: unknown process %q (have %s)", name, strings.Join(Names(), ", "))
}

// Deterministic emits at a fixed interval — the constant-bit-rate source.
type Deterministic struct{ Interval sim.Time }

// Name implements Process.
func (Deterministic) Name() string { return ProcDeterministic }

// Gap implements Process.
func (d Deterministic) Gap(*Rand) sim.Time {
	if d.Interval < 1 {
		return 1
	}
	return d.Interval
}

// Poisson emits with exponentially distributed gaps of the given mean —
// the memoryless reference process for offered-load sweeps.
type Poisson struct{ Mean float64 }

// Name implements Process.
func (Poisson) Name() string { return ProcPoisson }

// Gap implements Process.
func (p Poisson) Gap(r *Rand) sim.Time {
	g := sim.Time(math.Round(p.Mean * r.Exp()))
	if g < 1 {
		g = 1
	}
	return g
}

// OnOff defaults: a source is "on" a quarter of the time, and an average
// on-period carries 32 arrivals — bursty enough that queues see the
// difference from Poisson at the same mean rate.
const (
	DefaultDuty     = 0.25
	DefaultBurstLen = 32
)

// OnOff is a two-state Markov-modulated (MMPP) burst source: Poisson
// arrivals at a high rate while "on", silence while "off", with
// exponentially distributed dwell times in both states. The overall mean
// gap equals the configured mean, but arrivals clump.
type OnOff struct {
	// BurstGap is the mean interarrival gap while on; OnMean and OffMean
	// the mean dwell times of the two states, all in cycles.
	BurstGap, OnMean, OffMean float64

	started bool
	off     bool
	dwell   float64 // cycles left in the current state
}

// NewOnOff builds an on/off source with overall mean gap meanGap, duty
// cycle duty (fraction of time on, in (0, 1]) and an average of burstLen
// arrivals per on-period.
func NewOnOff(meanGap, duty float64, burstLen int) *OnOff {
	if duty <= 0 || duty > 1 {
		duty = DefaultDuty
	}
	if burstLen < 1 {
		burstLen = DefaultBurstLen
	}
	burstGap := meanGap * duty
	onMean := burstGap * float64(burstLen)
	return &OnOff{
		BurstGap: burstGap,
		OnMean:   onMean,
		OffMean:  onMean * (1 - duty) / duty,
	}
}

// Name implements Process.
func (*OnOff) Name() string { return ProcOnOff }

// Gap implements Process.
func (p *OnOff) Gap(r *Rand) sim.Time {
	if !p.started {
		p.started = true
		p.dwell = p.OnMean * r.Exp()
	}
	carry := 0.0
	for {
		if p.off {
			carry += p.dwell
			p.off = false
			p.dwell = p.OnMean * r.Exp()
			continue
		}
		g := p.BurstGap * r.Exp()
		if g <= p.dwell {
			p.dwell -= g
			gap := sim.Time(math.Round(carry + g))
			if gap < 1 {
				gap = 1
			}
			return gap
		}
		carry += p.dwell
		p.off = true
		p.dwell = p.OffMean * r.Exp()
	}
}

// Trace replays a recorded gap sequence cyclically — the reproducible
// "replay yesterday's traffic" source. Gaps of 0 are lifted to 1.
type Trace struct {
	Gaps []sim.Time
	i    int
}

// Name implements Process.
func (*Trace) Name() string { return "trace" }

// Gap implements Process.
func (t *Trace) Gap(*Rand) sim.Time {
	if len(t.Gaps) == 0 {
		return 1
	}
	g := t.Gaps[t.i%len(t.Gaps)]
	t.i++
	if g < 1 {
		g = 1
	}
	return g
}

// Source emits open-loop arrivals as events on a simulation engine: each
// arrival schedules the next one on the source's own clock, never waiting
// for the emitted packet's completion — that independence is what makes
// offered load an input instead of an outcome.
type Source struct {
	eng  *sim.Engine
	proc Process
	rng  *Rand
	emit func(seq int)

	// Done, if set, runs once when the source stops (budget exhausted or
	// horizon reached).
	Done func()

	left    int // remaining arrivals; -1 = unbounded
	until   sim.Time
	seq     int
	tick    *sim.Ticker
	stopped bool
}

// NewSource binds a source to an engine. emit runs at each arrival's
// virtual time with the arrival sequence number (0-based); it must submit
// the packet and return (it must not run the engine).
func NewSource(eng *sim.Engine, proc Process, rng *Rand, emit func(seq int)) *Source {
	s := &Source{eng: eng, proc: proc, rng: rng, emit: emit}
	s.tick = eng.NewTicker(s.fire)
	return s
}

// Start schedules the first arrival one gap from now. count bounds the
// number of arrivals (-1 or 0 = unbounded); until, when non-zero, is an
// absolute virtual-time horizon past which no arrival is emitted. An
// unbounded source needs a horizon, or the simulation would never drain.
func (s *Source) Start(count int, until sim.Time) {
	if count <= 0 {
		count = -1
	}
	if count < 0 && until == 0 {
		panic("arrivals: unbounded source needs a horizon")
	}
	s.left = count
	s.until = until
	s.schedule()
}

// Emitted reports how many arrivals have fired so far.
func (s *Source) Emitted() int { return s.seq }

// Stopped reports whether the source has finished emitting.
func (s *Source) Stopped() bool { return s.stopped }

func (s *Source) schedule() {
	if s.left == 0 {
		s.stop()
		return
	}
	at := s.eng.Now() + s.proc.Gap(s.rng)
	if s.until != 0 && at > s.until {
		s.stop()
		return
	}
	s.tick.At(at)
}

func (s *Source) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.Done != nil {
		s.Done()
	}
}

// fire is one arrival: emit, then schedule the successor. Emitting first
// matters for the stop edge — Done must not fire (and Stopped must not
// read true) until the final arrival has actually been emitted, since
// callers use Done as "no more emits will happen". The schedule stays
// open-loop either way: the gap is drawn from the source's own stream,
// never from anything emit does.
func (s *Source) fire() {
	seq := s.seq
	s.seq++
	if s.left > 0 {
		s.left--
	}
	s.emit(seq)
	s.schedule()
}

// DigestInit is the FNV-64a offset basis every arrival digest starts
// from.
const DigestInit uint64 = 0xcbf29ce484222325

// FoldArrival folds one arrival's (source index, sequence number,
// virtual time) into a running FNV-64a digest — the shared determinism
// witness: two runs with the same seed must produce the same digest, on
// the fast simulation kernel and the reference path alike.
func FoldArrival(d, source, seq uint64, at sim.Time) uint64 {
	for _, w := range [3]uint64{source, seq, uint64(at)} {
		for b := 0; b < 8; b++ {
			d = (d ^ (w >> (8 * b) & 0xff)) * 0x100000001b3
		}
	}
	return d
}

// StampNonce returns a fresh copy of base with the low 16 bits of seq
// stamped into its trailing bytes. The copy matters: a queued packet
// holds its nonce until dispatch, so stamping a shared buffer in place
// would retroactively rewrite every packet still waiting behind it.
func StampNonce(base []byte, seq int) []byte {
	n := append([]byte(nil), base...)
	n[len(n)-1] = byte(seq)
	n[len(n)-2] = byte(seq >> 8)
	return n
}

// ClassProfile describes one traffic class of an open-loop mix: its QoS
// class, its share of the total offered bits, its fixed packet size and
// suite, and an optional per-packet relative deadline. The load-curve
// harness and the cluster's open-loop runner share this shape.
type ClassProfile struct {
	Class  qos.Class
	Share  float64 // fraction of total offered bits
	Bytes  int     // payload bytes per packet
	Family cryptocore.Family
	KeyLen int
	TagLen int
	// Deadline is the per-packet relative deadline in cycles (0 = none):
	// a packet still queued this long after arrival is dropped with an
	// expiry verdict, and a late completion counts a deadline miss.
	Deadline sim.Time
}

// ExpectedVerdict reports whether err is a verdict the open-loop
// experiments treat as a measured outcome — success, or one of the
// shaper's explicit drops (shed, expired, aged) — rather than a hard
// failure.
func ExpectedVerdict(err error) bool {
	switch err {
	case nil, qos.ErrShed, qos.ErrExpired, qos.ErrAged:
		return true
	}
	return false
}

// Emitter turns arrivals into packets for one class profile: it owns the
// nonce/payload buffers, folds every arrival into a shared determinism
// digest, stamps a fresh per-packet nonce and converts the profile's
// relative deadline into absolute virtual time. The single-device and
// cluster E13 paths both build their sources on it, so the digest and
// packet wiring cannot drift apart.
type Emitter struct {
	eng     *sim.Engine
	prof    ClassProfile
	src     uint64
	digest  *uint64
	nonce   []byte
	payload []byte
	submit  func(class qos.Class, nonce, payload []byte, deadline sim.Time)
}

// NewEmitter binds an emitter to an engine, a class profile, a source
// index (folded into the digest alongside the sequence number) and the
// submit function that hands each packet downstream.
func NewEmitter(eng *sim.Engine, prof ClassProfile, srcIdx uint64, digest *uint64,
	submit func(class qos.Class, nonce, payload []byte, deadline sim.Time)) *Emitter {
	return &Emitter{
		eng: eng, prof: prof, src: srcIdx, digest: digest,
		nonce:   make([]byte, prof.NonceLen()),
		payload: make([]byte, prof.Bytes),
		submit:  submit,
	}
}

// Emit is the Source callback.
func (e *Emitter) Emit(seq int) {
	*e.digest = FoldArrival(*e.digest, e.src, uint64(seq), e.eng.Now())
	nonce := StampNonce(e.nonce, seq)
	deadline := sim.Time(0)
	if e.prof.Deadline != 0 {
		deadline = e.eng.Now() + e.prof.Deadline
	}
	e.submit(e.prof.Class, nonce, e.payload, deadline)
}

// ClassShares sums a mix's offered-bit shares per class — the brownout
// planner's input.
func ClassShares(mix []ClassProfile) [qos.NumClasses]float64 {
	var shares [qos.NumClasses]float64
	for _, p := range mix {
		shares[p.Class] += p.Share
	}
	return shares
}

// MeanGap returns the class's mean interarrival gap in cycles at the
// given total offered load (in bits per cycle).
func (p ClassProfile) MeanGap(totalBitsPerCycle float64) float64 {
	classBits := p.Share * totalBitsPerCycle
	if classBits <= 0 {
		return math.Inf(1)
	}
	return float64(p.Bytes*8) / classBits
}

// NonceLen returns the suite's nonce length.
func (p ClassProfile) NonceLen() int {
	if p.Family == cryptocore.FamilyCCM {
		return 13
	}
	return 12
}
