package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"mccp/internal/bufpool"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/cuisa"
	"mccp/internal/harness"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// checkEvery is the sampling interval of the stdlib reference comparison on
// the device workloads (every warm-up packet is compared as well).
const checkEvery = 64

// deviceRig is one four-core MCCP with its communication and main
// controllers, driven from a single goroutine through Engine.Step.
type deviceRig struct {
	eng    *sim.Engine
	dev    *core.MCCP
	cc     *radio.CommController
	mc     *radio.MainController
	events uint64 // Step() calls that ran an event
}

func newDeviceRig(seed uint64) *deviceRig {
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{Cores: 4, QueueRequests: true})
	g := &deviceRig{eng: eng, dev: dev, cc: radio.NewCommController(dev), mc: radio.NewMainController(dev, seed)}
	g.drain()
	return g
}

// drain steps the engine until nothing is pending.
func (g *deviceRig) drain() {
	for g.eng.Step() {
		g.events++
	}
}

// deviceCounts are the exported counters of the layers under the device,
// read from outside. All are exact functions of (code, seed).
type deviceCounts [numCounts]uint64

const (
	cntCycles = iota
	cntEvents
	cntInstr
	cntIssues
	cntAES   // SAES issues: one per AES block
	cntGHASH // SGFM issues: one per GHASH multiplication
	cntGrants
	cntXbarBusy
	cntExpansions
	cntCoreBusy
	cntQueued
	numCounts
)

func (g *deviceRig) counts() deviceCounts {
	c := deviceCounts{
		cntCycles: uint64(g.eng.Now()), cntEvents: g.events,
		cntGrants: g.dev.XBar.Grants, cntXbarBusy: uint64(g.dev.XBar.BusyCycles),
		cntExpansions: g.dev.KeySched.Expansions, cntQueued: g.dev.Stats.Queued,
	}
	for _, cr := range g.dev.Cores {
		c[cntInstr] += cr.CPU.Executed
		c[cntCoreBusy] += uint64(cr.Stats.BusyCycles)
		for _, n := range cr.Unit.IssueCount {
			c[cntIssues] += n
		}
		c[cntAES] += cr.Unit.IssueCount[cuisa.OpSAES]
		c[cntGHASH] += cr.Unit.IssueCount[cuisa.OpSGFM]
	}
	return c
}

func (a deviceCounts) sub(b deviceCounts) deviceCounts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// witness folds the counts and an output digest into one batch witness.
func (a deviceCounts) witness(out fold) uint64 {
	f := foldInit.word(uint64(out))
	for _, v := range a {
		f = f.word(v)
	}
	return uint64(f)
}

// exactPrefix is the state after a fixed number of batches. Repetitions are
// time-boxed, so their totals cover different numbers of batches, and per
// packet counts drift with that number (one session in a thousand has a
// flipped tag; Poisson windows differ). The counts over a fixed prefix are
// pure functions of (code, seed) and can be compared between runs exactly.
// A repetition too short to reach the prefix (the smoke test) books what ran.
type exactPrefix struct {
	counts      deviceCounts
	pkts, bytes int64
}

func (g *deviceRig) prefix(rep *repetition, before deviceCounts) *exactPrefix {
	return &exactPrefix{g.counts().sub(before), rep.pkts, rep.payloadBytes}
}

func (x *exactPrefix) book(rep *repetition) {
	x.counts.layerCounts(x.pkts, rep.layer)
	rep.simCycles, rep.simBytes = x.counts[cntCycles], x.bytes
}

// layerCounts reports the exact per-packet counts of the device layers.
func (a deviceCounts) layerCounts(pkts int64, layer map[string]float64) {
	for name, i := range map[string]int{
		"sim.events_per_pkt": cntEvents, "picoblaze.instr_per_pkt": cntInstr,
		"cryptounit.issues_per_pkt": cntIssues, "aes.blocks_per_pkt": cntAES, "ghash.muls_per_pkt": cntGHASH,
		"crossbar.grants_per_pkt": cntGrants, "keysched.expansions_per_pkt": cntExpansions,
		"core.queued_per_pkt": cntQueued, "core.sim_cycles_per_pkt": cntCycles,
	} {
		layer[name] = float64(a[i]) / float64(pkts)
	}
	layer["crossbar.busy_frac"] = float64(a[cntXbarBusy]) / float64(a[cntCycles])
	layer["core.busy_frac"] = float64(a[cntCoreBusy]) / (4 * float64(a[cntCycles]))
}

// deviceKey is one session key the benchmark generated and installed,
// with the suite its sessions use and the independent reference over it.
type deviceKey struct {
	id    int
	suite core.Suite
	ref   *reference
}

func (k *deviceKey) nonceLen() int {
	if k.suite.Family == cryptocore.FamilyCCM {
		return 13
	}
	return 12
}

func (g *deviceRig) installKey(r *rng, keyLen int, suite core.Suite, corrupt bool) (*deviceKey, error) {
	key := r.bytes(keyLen)
	id, err := g.mc.InstallKey(key)
	if err != nil {
		return nil, fmt.Errorf("InstallKey: %w", err)
	}
	if corrupt {
		key[0] ^= 1
	}
	ref, err := newReference(suite.Family, key, suite.TagLen)
	if err != nil {
		return nil, err
	}
	return &deviceKey{id: id, suite: suite, ref: ref}, nil
}

// checkSealed compares a device output with the reference.
func (k *deviceKey) checkSealed(nonce, payload, got []byte) error {
	want, err := k.ref.seal(nonce, payload)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("output differs from the stdlib reference (%v, %d-byte payload)", k.suite.Family, len(payload))
	}
	return nil
}

// ---------------------------------------------------------------- device-bulk

const (
	bulkPayload  = 2048
	bulkInFlight = 4
	// bulkHalf is the packets per family in one batch: a batch is bulkHalf
	// GCM packets, drained, then bulkHalf CCM packets, drained — the
	// Table II 4x1 methodology, and the unit the rate samples are taken over.
	bulkHalf = 256
	// bulkExact: the exact per-layer counts are taken over this many batches
	// (see exactPrefix).
	bulkExact = 8
)

// Table II, 2 KB packets, 128-bit keys, four cores one packet each.
var paperMbps = map[cryptocore.Family]float64{cryptocore.FamilyGCM: 1748, cryptocore.FamilyCCM: 856}

type bulkRun struct {
	env  env
	rig  *deviceRig
	rep  *repetition
	keys [2]*deviceKey // GCM, CCM
	chs  [2]int
	pool [][]byte

	checkAll  bool // compare every packet with the reference (warm-up)
	fam       int  // family of the half in progress
	remaining int  // launches left in this half
	seq       uint64
	out       fold
	parent    int // span of the batch in progress
	err       error

	streams   []*bulkStream
	famCycles [2]uint64
	famBits   [2]uint64
}

type bulkStream struct {
	b       *bulkRun
	nonce   [13]byte
	n       []byte // nonce[:nonceLen] of the packet in flight
	payload []byte
	seq     uint64
	started time.Time
	cb      func([]byte, error)
}

func (b *bulkRun) fail(err error) {
	b.rep.failed++
	if b.err == nil {
		b.err = err
	}
}

func (b *bulkRun) launch(s *bulkStream) {
	if b.remaining == 0 {
		return
	}
	b.remaining--
	b.seq++
	b.rep.attempted++
	key := b.keys[b.fam]
	s.seq = b.seq
	s.n = s.nonce[:key.nonceLen()]
	stampNonce(s.n, s.seq)
	s.payload = b.pool[s.seq%uint64(len(b.pool))]
	s.started = time.Now()
	sp := b.env.tr.begin("radio.Encrypt", b.parent, s.seq)
	b.rig.cc.Encrypt(b.chs[b.fam], s.n, nil, s.payload, s.cb)
	b.env.tr.end(sp)
}

func (s *bulkStream) done(out []byte, err error) {
	b := s.b
	if err != nil {
		b.fail(fmt.Errorf("packet %d: %w", s.seq, err))
		return
	}
	b.out = b.out.bytes(out)
	if b.checkAll || s.seq%checkEvery == 0 {
		if err := b.keys[b.fam].checkSealed(s.n, s.payload, out); err != nil {
			b.fail(fmt.Errorf("packet %d: %w", s.seq, err))
		}
	}
	b.rep.latUs = append(b.rep.latUs, float64(time.Since(s.started))/1e3)
	bufpool.PutBytes(out)
	b.launch(s)
}

// half runs n packets of one family through the device, four in flight.
func (b *bulkRun) half(fam, n int) {
	b.fam, b.remaining = fam, n
	c0 := b.rig.eng.Now()
	for _, s := range b.streams {
		b.launch(s)
	}
	b.rig.drain()
	b.famCycles[fam] += uint64(b.rig.eng.Now() - c0)
	b.famBits[fam] += uint64(n) * bulkPayload * 8
}

func (b *bulkRun) batch(no int) {
	t0 := time.Now()
	c0 := b.rig.counts()
	b.out = foldInit
	failed := b.rep.failed
	b.parent = b.env.tr.begin("sim.Step", 0, uint64(no))
	half := b.env.sized(bulkHalf, bulkInFlight)
	b.half(0, half)
	b.half(1, half)
	b.env.tr.end(b.parent)
	b.rep.witness = append(b.rep.witness, b.rig.counts().sub(c0).witness(b.out))
	done := int64(2*half) - (b.rep.failed - failed)
	b.rep.addRate(time.Since(t0), done, done*bulkPayload)
}

func setupDeviceBulk(e env, _ *repetition) (instance, error) {
	r := newRNG(e.seed).split(1)
	b := &bulkRun{env: e, rep: &repetition{}, rig: newDeviceRig(e.seed), pool: payloadPool(r.split(2), 64, bulkPayload)}
	for i, fam := range []cryptocore.Family{cryptocore.FamilyGCM, cryptocore.FamilyCCM} {
		key, err := b.rig.installKey(r, 16, core.Suite{Family: fam, TagLen: 16}, e.corruptRef)
		if err != nil {
			return nil, err
		}
		b.keys[i] = key
		var openErr error
		b.rig.cc.OpenChannel(key.suite, key.id, func(ch int, err error) { b.chs[i], openErr = ch, err })
		b.rig.drain()
		if openErr != nil {
			return nil, fmt.Errorf("OpenChannel %v: %w", fam, openErr)
		}
	}
	for i := 0; i < bulkInFlight; i++ {
		s := &bulkStream{b: b}
		r.fill(s.nonce[:])
		s.cb = s.done
		b.streams = append(b.streams, s)
	}
	// Warm-up: one packet per stream and family, four in flight so every
	// core's key cache holds both keys, each compared with the reference.
	b.checkAll = true
	b.half(0, bulkInFlight)
	b.half(1, bulkInFlight)
	b.checkAll = false
	if b.err != nil {
		return nil, fmt.Errorf("warm-up: %w", b.err)
	}
	b.famCycles, b.famBits = [2]uint64{}, [2]uint64{}
	return b, nil
}

func (b *bulkRun) close() {}

func (b *bulkRun) measure(rep *repetition) error {
	b.rep = rep
	before := b.rig.counts()
	var exact *exactPrefix
	var famCycles, famBits [2]uint64
	rep.timed(func() {
		batchesFor(b.env.budget, func(no int) bool {
			b.batch(no)
			if no+1 == bulkExact {
				exact, famCycles, famBits = b.rig.prefix(rep, before), b.famCycles, b.famBits
			}
			return b.err == nil
		})
	})
	if b.err != nil {
		return b.err
	}
	if exact == nil {
		exact, famCycles, famBits = b.rig.prefix(rep, before), b.famCycles, b.famBits
	}
	exact.book(rep)
	var errPct float64
	for i, key := range b.keys {
		fam := key.suite.Family
		got := b.rig.eng.ThroughputMbps(int(famBits[i]), sim.Time(famCycles[i]))
		// The same cell through the repo's own Table II harness: if the two
		// disagree, sim_err_pct would be the error of this loop, not of the
		// model.
		table := harness.MeasureThroughput(fam, harness.Mapping{Name: "4x1", Streams: bulkInFlight}, 16, bulkPayload, b.env.sized(bulkHalf, bulkInFlight))
		if math.Abs(got-table)/table > 0.005 {
			return fmt.Errorf("%v 4x1: %.1f sim Mbps here, %.1f from harness.MeasureThroughput (> 0.5%% apart)", fam, got, table)
		}
		rep.note("%v 4x1 128-bit 2 KB: %.1f sim Mbps (harness.MeasureThroughput %.1f, paper %.0f)", fam, got, table, paperMbps[fam])
		errPct += 100 * math.Abs(got-paperMbps[fam]) / paperMbps[fam] / 2
	}
	rep.layer["core.sim_err_pct"] = errPct
	return nil
}

// --------------------------------------------------------------- device-churn

const (
	churnKeys     = 48 // working set, against four 4-entry key caches
	churnInFlight = 3
	churnRounds   = 4 // encrypt + decrypt pairs per session
	churnPayload  = 64
	// churnBatch is the sessions per batch (8 packets each).
	churnBatch = 192
	// churnFlipEvery: one session in this many has the tag of its first
	// packet flipped and must get AuthFail back.
	churnFlipEvery = 1000
	// churnExact batches (12 288 sessions, 12 flipped tags) give the exact
	// per-layer counts.
	churnExact = 64
)

type churnRun struct {
	env  env
	rig  *deviceRig
	rep  *repetition
	keys []*deviceKey
	pool [][]byte

	remaining int    // sessions left to start in this batch
	session   uint64 // sessions started so far
	out       fold
	parent    int
	err       error
	slots     []*churnSlot
}

// churnSlot carries one session at a time through
// OPEN -> 4 x (ENCRYPT, DECRYPT of its output) -> CLOSE. The callbacks are
// bound once, so the generator allocates nothing per packet.
type churnSlot struct {
	r       *churnRun
	session uint64
	key     *deviceKey
	ch      int
	round   int
	nonce   [13]byte
	n       []byte
	payload []byte
	sealed  []byte
	flipped bool
	started time.Time

	onOpen  func(int, error)
	onEnc   func([]byte, error)
	onDec   func([]byte, error)
	onClose func(error)
}

func (r *churnRun) fail(err error) {
	r.rep.failed++
	if r.err == nil {
		r.err = err
	}
}

func (r *churnRun) start(s *churnSlot) {
	if r.remaining == 0 {
		return
	}
	r.remaining--
	s.session = r.session
	r.session++
	s.key = r.keys[s.session%churnKeys]
	s.n = s.nonce[:s.key.nonceLen()]
	s.round = 0
	s.started = time.Now()
	sp := r.span(s, "radio.OpenChannel")
	r.rig.cc.OpenChannel(s.key.suite, s.key.id, s.onOpen)
	r.env.tr.end(sp)
}

// span opens a span for one call of session s, under the batch's span.
func (r *churnRun) span(s *churnSlot, name string) int {
	return r.env.tr.begin(name, r.parent, s.session)
}

func (s *churnSlot) opened(ch int, err error) {
	if err != nil {
		s.r.fail(fmt.Errorf("session %d: OPEN: %w", s.session, err))
		return
	}
	s.ch = ch
	s.encrypt()
}

func (s *churnSlot) packet() uint64 { return s.session*churnRounds + uint64(s.round) }

func (s *churnSlot) encrypt() {
	r := s.r
	stampNonce(s.n, s.packet())
	s.payload = r.pool[s.packet()%uint64(len(r.pool))]
	r.rep.attempted++
	sp := r.span(s, "radio.Encrypt")
	r.rig.cc.Encrypt(s.ch, s.n, nil, s.payload, s.onEnc)
	r.env.tr.end(sp)
}

func (s *churnSlot) encrypted(out []byte, err error) {
	r := s.r
	tagLen := s.key.suite.TagLen
	if err != nil || len(out) != churnPayload+tagLen {
		r.fail(fmt.Errorf("session %d: ENCRYPT: %d bytes, %v", s.session, len(out), err))
		return
	}
	r.out = r.out.bytes(out)
	if s.packet()%checkEvery == 0 {
		if err := s.key.checkSealed(s.n, s.payload, out); err != nil {
			r.fail(fmt.Errorf("session %d: %w", s.session, err))
		}
	}
	s.sealed = out
	if s.flipped = s.round == 0 && s.session%churnFlipEvery == churnFlipEvery/2; s.flipped {
		out[len(out)-1] ^= 0x80
	}
	r.rep.attempted++
	sp := r.span(s, "radio.Decrypt")
	r.rig.cc.Decrypt(s.ch, s.n, nil, out[:churnPayload], out[churnPayload:], s.onDec)
	r.env.tr.end(sp)
}

func (s *churnSlot) decrypted(pt []byte, err error) {
	r := s.r
	switch {
	case s.flipped && err == radio.ErrAuth:
		r.rep.expected++
	case s.flipped:
		r.fail(fmt.Errorf("session %d: flipped tag accepted (%v)", s.session, err))
	case err != nil:
		r.fail(fmt.Errorf("session %d: DECRYPT: %w", s.session, err))
	case !bytes.Equal(pt, s.payload):
		r.fail(fmt.Errorf("session %d: decrypt(encrypt(p)) != p", s.session))
	default:
		r.out = r.out.bytes(pt)
		bufpool.PutBytes(pt)
	}
	bufpool.PutBytes(s.sealed)
	if s.round++; s.round < churnRounds {
		s.encrypt()
		return
	}
	sp := r.span(s, "radio.CloseChannel")
	r.rig.cc.CloseChannel(s.ch, s.onClose)
	r.env.tr.end(sp)
}

func (s *churnSlot) closed(err error) {
	if err != nil {
		s.r.fail(fmt.Errorf("session %d: CLOSE: %w", s.session, err))
		return
	}
	s.r.rep.latUs = append(s.r.rep.latUs, float64(time.Since(s.started))/1e3)
	s.r.start(s)
}

// batch runs n sessions, churnInFlight at a time, and returns once the
// device is idle again.
func (r *churnRun) batch(no, n int) {
	t0 := time.Now()
	c0 := r.rig.counts()
	r.out = foldInit
	bad0 := r.rep.failed + r.rep.expected
	r.remaining = n
	r.parent = r.env.tr.begin("sim.Step", 0, uint64(no))
	for _, s := range r.slots {
		r.start(s)
	}
	r.rig.drain()
	r.env.tr.end(r.parent)
	r.rep.witness = append(r.rep.witness, r.rig.counts().sub(c0).witness(r.out))
	done := int64(n)*2*churnRounds - (r.rep.failed + r.rep.expected - bad0)
	r.rep.addRate(time.Since(t0), done, done*churnPayload)
}

func setupDeviceChurn(e env, _ *repetition) (instance, error) {
	rs := newRNG(e.seed).split(3)
	r := &churnRun{env: e, rep: &repetition{}, rig: newDeviceRig(e.seed), pool: payloadPool(rs.split(4), 256, churnPayload)}
	for i := 0; i < churnKeys; i++ {
		// Suite and key length rotate at coprime periods, so all nine
		// combinations occur.
		suite := core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8, SplitCCM: i%3 == 2}
		if i%3 == 0 {
			suite = core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}
		}
		key, err := r.rig.installKey(rs, []int{16, 24, 32, 16}[i%4], suite, e.corruptRef)
		if err != nil {
			return nil, err
		}
		r.keys = append(r.keys, key)
	}
	for i := 0; i < churnInFlight; i++ {
		s := &churnSlot{r: r}
		rs.fill(s.nonce[:])
		s.onOpen, s.onEnc, s.onDec, s.onClose = s.opened, s.encrypted, s.decrypted, s.closed
		r.slots = append(r.slots, s)
	}
	// Warm-up: one session per suite kind, the first packet of each
	// compared with the reference. Session numbers carry on from here, so
	// the timed region starts at session 3.
	r.batch(-1, 3)
	if r.err != nil {
		return nil, fmt.Errorf("warm-up: %w", r.err)
	}
	return r, nil
}

func (r *churnRun) close() {}

func (r *churnRun) measure(rep *repetition) error {
	r.rep = rep
	before := r.rig.counts()
	var exact *exactPrefix
	rep.timed(func() {
		batchesFor(r.env.budget, func(no int) bool {
			r.batch(no, r.env.sized(churnBatch, churnInFlight))
			if no+1 == churnExact {
				exact = r.rig.prefix(rep, before)
			}
			return r.err == nil
		})
	})
	if r.err != nil {
		return r.err
	}
	if exact == nil {
		exact = r.rig.prefix(rep, before)
	}
	exact.book(rep)
	rep.note("%d sessions, %d flipped tags answered AuthFail, %.2f key expansions/session",
		len(rep.latUs), rep.expected, float64(r.rig.counts().sub(before)[cntExpansions])/float64(len(rep.latUs)))
	return nil
}
