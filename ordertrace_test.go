// Order guard for the simulation kernel's fast paths.
//
// The determinism tests pin virtual-time results — cycle counts, Mbps,
// packet digests. This test pins the order the kernel's contract promises
// (package sim): each Cryptographic Core's own sequence of (cycle,
// instruction) acceptances, taken from every unit's Trace hook. How the
// events of different cores interleave inside one cycle is not promised —
// the fast paths run one core's continuation ahead of another core's
// same-cycle event — so the per-core sequences are merged by (cycle, core)
// before they are folded: the digest is canonical, and it must be the same
// on the fast path and on the Engine.Compat reference for every case.
//
// The digests of the first four cases were computed on the parent of the
// commit that made the order per-core (handshake fusion no longer waits for
// a quiet cycle, the controller presents instructions ahead of its clock) as
// well, on its fast path and under Compat, and all agreed — including CCM
// 2x2, whose global same-cycle order had differed between the two paths.
// TestConcurrentPathMix holds the same digest equal to Compat's while the
// two paths alternate mid-run.
package mccp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/cuisa"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// orderRig is a four-core device whose units record every accepted
// instruction and whose packets record where and what they completed.
type orderRig struct {
	eng    *sim.Engine
	dev    *core.MCCP
	cc     *radio.CommController
	mc     *radio.MainController
	issues []issueRec
	doneAt []sim.Time // per packet, in launch order: completion cycle
	out    []uint64   // per packet: FNV-64a of the bytes it returned

	// flip, when set, makes run alternate the engine between its fast
	// paths and the Compat reference at cycles drawn from it. lastAt is each
	// core's latest acceptance; aheadFlips counts the switches made while
	// some core had accepted an instruction ahead of the clock (a unit
	// running its loop ahead).
	flip       *rand.Rand
	lastAt     [4]sim.Time
	aheadFlips int
}

// issueRec is one acceptance: (cycle, core, unit instruction).
type issueRec struct {
	at   sim.Time
	core int
	in   cuisa.Instr
}

// newOrderRig builds the device on the path sim.CompatDefault selects; a
// non-nil flip source alternates the paths mid-run instead (see run).
func newOrderRig(flip *rand.Rand) *orderRig {
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{Cores: 4, QueueRequests: true})
	r := &orderRig{eng: eng, dev: dev, cc: radio.NewCommController(dev), mc: radio.NewMainController(dev, 99), flip: flip}
	for _, c := range dev.Cores {
		id := c.ID
		c.Unit.Trace = func(now sim.Time, in cuisa.Instr) {
			r.issues = append(r.issues, issueRec{now, id, in})
			r.lastAt[id] = now
		}
	}
	r.run()
	return r
}

// run drains the engine. With a flip source it switches Engine.Compat after
// the first event at or past a cycle drawn 1-24 cycles ahead, again and
// again, so every fast path is entered and left at arbitrary points of
// every handshake, between two events of one cycle as well: with an
// instruction waiting on a unit's port ahead of its cycle, a controller
// ahead of the clock, a burst half-way through a FIFO. (A loop around Step
// and not a ticker: a ticker's last firing would move the clock past the
// cycle the device drained at.)
func (r *orderRig) run() {
	if r.flip == nil {
		r.eng.Run()
		return
	}
	for due := r.eng.Now(); r.eng.Step(); {
		if r.eng.Now() >= due {
			if slices.ContainsFunc(r.lastAt[:], func(at sim.Time) bool { return at > r.eng.Now() }) {
				r.aheadFlips++
			}
			r.eng.Compat = !r.eng.Compat
			due = r.eng.Now() + sim.Time(1+r.flip.Intn(24))
		}
	}
}

// packet books packet seq's completion.
func (r *orderRig) packet(seq int, out []byte) {
	for len(r.doneAt) <= seq {
		r.doneAt, r.out = append(r.doneAt, 0), append(r.out, 0)
	}
	h := fnv.New64a()
	h.Write(out)
	r.doneAt[seq], r.out[seq] = r.eng.Now(), h.Sum64()
}

// pathWitness is what a run must reproduce on every path: every packet's
// completion cycle and output, the canonical issue order, and each core's
// exported counters once the device has drained.
type pathWitness struct {
	end      sim.Time
	doneAt   []sim.Time
	out      []uint64
	order    uint64
	executed [4]uint64
	issued   [4][16]uint64
	fifo     [4][4]uint64 // In.Pushed, In.Popped, Out.Pushed, Out.Popped
}

// witness folds the acceptances in canonical order — each core's own
// sequence as recorded, the sequences merged by (cycle, core) — and reads
// the counters.
func (r *orderRig) witness() pathWitness {
	sort.SliceStable(r.issues, func(i, j int) bool {
		a, b := r.issues[i], r.issues[j]
		return a.at < b.at || a.at == b.at && a.core < b.core
	})
	h := fnv.New64a()
	for _, x := range r.issues {
		var rec [24]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(x.at))
		binary.LittleEndian.PutUint64(rec[8:], uint64(x.core))
		binary.LittleEndian.PutUint64(rec[16:], uint64(x.in))
		h.Write(rec[:])
	}
	w := pathWitness{end: r.eng.Now(), doneAt: r.doneAt, out: r.out, order: h.Sum64()}
	for i, c := range r.dev.Cores {
		w.executed[i], w.issued[i] = c.CPU.Executed, c.Unit.IssueCount
		w.fifo[i] = [4]uint64{c.In.Pushed, c.In.Popped, c.Out.Pushed, c.Out.Popped}
	}
	return w
}

func (r *orderRig) open(t *testing.T, s core.Suite, keyBytes int) int {
	t.Helper()
	keyID, _, err := r.mc.ProvisionKey(keyBytes)
	if err != nil {
		t.Fatal(err)
	}
	ch := 0
	r.cc.OpenChannel(s, keyID, func(c int, e error) {
		if e != nil {
			t.Fatal(e)
		}
		ch = c
	})
	r.run()
	return ch
}

// orderMapping keeps streams packets of mixed sizes in flight on one
// channel, Table II style.
func orderMapping(t *testing.T, r *orderRig, fam cryptocore.Family, streams int, split bool) pathWitness {
	t.Helper()
	ch := r.open(t, core.Suite{Family: fam, TagLen: 16, SplitCCM: split}, 16)
	nonce := make([]byte, 12)
	if fam == cryptocore.FamilyCCM {
		nonce = make([]byte, 13)
	}
	sizes := [16]int{2048, 64, 1500, 16, 777, 2048, 1, 512, 33, 1024, 2047, 128, 300, 2048, 48, 999}
	launched, completed := 0, 0
	var launch func()
	launch = func() {
		if launched == len(sizes) {
			return
		}
		seq := launched
		launched++
		r.cc.Encrypt(ch, nonce, nil, make([]byte, sizes[seq]), func(out []byte, e error) {
			if e != nil {
				t.Fatal(e)
			}
			r.packet(seq, out)
			completed++
			launch()
		})
	}
	for i := 0; i < streams; i++ {
		launch()
	}
	r.run()
	if completed != len(sizes) || len(r.issues) == 0 {
		t.Fatalf("%d/%d packets completed, %d issues traced", completed, len(sizes), len(r.issues))
	}
	return r.witness()
}

// mixSpec is one seeded encrypt-then-decrypt workload of orderRandomMix.
type mixSpec struct {
	seed       int64
	packets    int
	maxPayload int
	split      bool  // add a CCM channel split over two cores per key size
	badTags    []int // packets whose tag is flipped before decryption
}

// orderRandomMix drives one channel per mode and key size (GCM and CCM,
// plus two-core CCM on request) with a seeded mix: payloads of 1 byte to
// maxPayload, 0-64 B AAD, inFlight requests in flight, every encryption
// followed by the decryption of its own output; the packets in badTags
// carry a flipped tag and must fail authentication.
func orderRandomMix(t *testing.T, r *orderRig, m mixSpec, inFlight int) pathWitness {
	t.Helper()
	type channel struct {
		id       int
		nonceLen int
	}
	var chans []channel
	for _, kb := range []int{16, 24, 32} {
		chans = append(chans,
			channel{r.open(t, core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, kb), 12},
			channel{r.open(t, core.Suite{Family: cryptocore.FamilyCCM, TagLen: 16}, kb), 13})
		if m.split {
			chans = append(chans, channel{r.open(t, core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8, SplitCCM: true}, kb), 13})
		}
	}
	bad := map[int]bool{}
	for _, seq := range m.badTags {
		bad[seq] = true
	}
	rng := rand.New(rand.NewSource(m.seed))
	launched, completed, authFails := 0, 0, 0
	var launch func()
	launch = func() {
		if launched == m.packets {
			return
		}
		seq := launched
		launched++
		c := chans[rng.Intn(len(chans))]
		nonce, aad, pt := make([]byte, c.nonceLen), make([]byte, rng.Intn(65)), make([]byte, 1+rng.Intn(m.maxPayload))
		rng.Read(nonce)
		rng.Read(aad)
		rng.Read(pt)
		r.cc.Encrypt(c.id, nonce, aad, pt, func(out []byte, e error) {
			if e != nil {
				t.Fatal(e)
			}
			r.packet(2*seq, out)
			sealed := append([]byte(nil), out...)
			ct, tag := sealed[:len(pt)], sealed[len(pt):]
			if bad[seq] {
				tag[0] ^= 1
			}
			r.cc.Decrypt(c.id, nonce, aad, ct, tag, func(got []byte, e error) {
				switch {
				case bad[seq] && errors.Is(e, radio.ErrAuth):
					authFails++
				case e != nil || bad[seq]:
					t.Fatalf("packet %d: decrypt err = %v", seq, e)
				case !bytes.Equal(got, pt):
					t.Fatalf("packet %d: round trip differs", seq)
				}
				r.packet(2*seq+1, got)
				completed++
				launch()
			})
		})
	}
	for i := 0; i < inFlight; i++ {
		launch()
	}
	r.run()
	if completed != m.packets || authFails != len(m.badTags) {
		t.Fatalf("%d/%d packets completed, %d auth failures", completed, m.packets, authFails)
	}
	return r.witness()
}

// orderCases are the workloads of the order guard. inFlight is the
// packets kept in flight: one per mapping slot for the pinned digests, four
// on every case for TestConcurrentPathMix.
var orderCases = []struct {
	name string
	run  func(t *testing.T, r *orderRig, inFlight int) pathWitness
	// slots is the mapping's packets in flight; pinned the canonical order
	// digest with that many.
	slots  int
	pinned uint64
	// runsAhead: with four in flight, every seed of TestConcurrentPathMix
	// must switch paths while a unit has run its loop ahead of the clock.
	runsAhead bool
}{
	{"GCM/4x1", func(t *testing.T, r *orderRig, n int) pathWitness {
		return orderMapping(t, r, cryptocore.FamilyGCM, n, false)
	}, 4, 0x0d2429029c5c60db, true},
	{"CCM/4x1", func(t *testing.T, r *orderRig, n int) pathWitness {
		return orderMapping(t, r, cryptocore.FamilyCCM, n, false)
	}, 4, 0x642f8c6fb27bb62f, true},
	{"CCM/2x2", func(t *testing.T, r *orderRig, n int) pathWitness {
		return orderMapping(t, r, cryptocore.FamilyCCM, n, true)
	}, 2, 0xd218833d908998cf, false},
	{"mix", func(t *testing.T, r *orderRig, n int) pathWitness {
		return orderRandomMix(t, r, mixSpec{seed: 12, packets: 24, maxPayload: 2048, badTags: []int{11}}, n)
	}, 4, 0x83e018b3cc3145ea, false},
	// Short packets on nine channels, two-core CCM among them: with four in
	// flight, two cores strobe their results in one cycle in this run, and
	// the fast path runs those two events in the other order than Compat
	// (the run diverges if the done queue takes them in arrival order).
	{"short mix", func(t *testing.T, r *orderRig, n int) pathWitness {
		return orderRandomMix(t, r, mixSpec{seed: 43, packets: 40, maxPayload: 400, split: true, badTags: []int{3, 8, 13, 21, 34}}, n)
	}, 4, 0x87c03f4f539a274c, false},
}

func TestUnitIssueOrderPinned(t *testing.T) {
	for _, c := range orderCases {
		got := c.run(t, newOrderRig(nil), c.slots).order
		if got != c.pinned {
			t.Errorf("%s: issue-order digest %#016x, pinned %#016x", c.name, got, c.pinned)
		}
		if again := c.run(t, newOrderRig(nil), c.slots).order; again != got {
			t.Errorf("%s: issue order not deterministic: %#016x then %#016x", c.name, got, again)
		}
		var ref uint64
		onReference(func() { ref = c.run(t, newOrderRig(nil), c.slots).order })
		if ref != got {
			t.Errorf("%s: issue-order digest %#016x != reference path %#016x", c.name, got, ref)
		}
	}
}

// TestConcurrentPathMix is the concurrent differential behind the kernel's
// order contract (package sim): with four requests in flight, so that every
// core always has events pending next to every other core's, the fast paths
// must reproduce the Compat reference in everything the contract promises —
// and keep doing so while the engine is switched between the two paths every
// few cycles, over a hundred seeds of switching points. Everything is
// compared per packet and per core, so a same-cycle tie at a shared resource
// that arrival order decided would show as a moved completion cycle. On the
// one-core mappings every seed must switch at least once while a unit has
// accepted instructions ahead of the clock, so leaving a run ahead half-way
// is exercised too.
func TestConcurrentPathMix(t *testing.T) {
	const inFlight, seeds = 4, 100
	for _, c := range orderCases {
		var ref pathWitness
		onReference(func() { ref = c.run(t, newOrderRig(nil), inFlight) })
		if fast := c.run(t, newOrderRig(nil), inFlight); !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: fast path differs from the reference path:\nfast:   %+v\ncompat: %+v", c.name, fast, ref)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			r := newOrderRig(rand.New(rand.NewSource(seed)))
			if got := c.run(t, r, inFlight); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: switching paths with seed %d differs from the reference path:\nmixed:  %+v\ncompat: %+v", c.name, seed, got, ref)
			}
			if c.runsAhead && r.aheadFlips == 0 {
				t.Errorf("%s: seed %d never switched paths while a unit ran ahead of the clock", c.name, seed)
			}
		}
	}
}
