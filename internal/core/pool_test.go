package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// TestRecycledRecordsNeverLive drives the device's pooled request and
// command records through every path that ends a request: bursts of up to
// nine GCM and split-CCM packets on four cores with a three-deep request
// queue (so requests queue and are shed), tampered decrypts (AUTH_FAIL),
// split requests that find no idle pair (downgraded to one core), eight
// keys over four-entry Key Caches (so Key Scheduler jobs queue), and a
// TRANSFER_DONE for an already retired request ID in every burst, whose
// record is by then serving another request. After every engine event no
// free record may be reachable from the request table or either queue;
// at the end every callback has fired exactly once and every packet has
// its right answer.
func TestRecycledRecordsNeverLive(t *testing.T) {
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{Cores: 4, QueueRequests: true, MaxQueue: 3})
	cc := radio.NewCommController(dev)
	mc := radio.NewMainController(dev, 0x5EED)
	eng.Run()

	type channel struct {
		ch                 int
		split              bool
		nonce, payload, ct []byte
		tag                []byte
	}
	var chans []channel
	for i := 0; i < 8; i++ {
		s := core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}
		nonce := make([]byte, 12)
		if i%2 == 1 {
			s = core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8, SplitCCM: true}
			nonce = make([]byte, 13)
		}
		keyID, _, err := mc.ProvisionKey(16)
		if err != nil {
			t.Fatal(err)
		}
		c := channel{split: s.SplitCCM, nonce: nonce, payload: make([]byte, 48+16*i)}
		for j := range c.payload {
			c.payload[j] = byte(i + j)
		}
		cc.OpenChannel(s, keyID, func(ch int, err error) {
			if err != nil {
				t.Fatal(err)
			}
			c.ch = ch
		})
		eng.Run()
		cc.Encrypt(c.ch, c.nonce, nil, c.payload, func(out []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			c.ct, c.tag = out[:len(c.payload)], out[len(c.payload):]
		})
		eng.Run()
		chans = append(chans, c)
	}
	// Request IDs are numbered from 1; the eight sealing requests above
	// are retired.
	const retired = 8

	rng := rand.New(rand.NewSource(1))
	var fired []int
	var ok, authFails, shed, tdErrs, tdIssued int
	var splitDone, gcmDone uint64
	packet := func(c channel, decrypt, tamper bool) {
		i := len(fired)
		fired = append(fired, 0)
		cb := func(out []byte, err error) {
			fired[i]++
			switch {
			case err == core.ErrQueueFull:
				shed++
				return
			case tamper:
				if err != radio.ErrAuth {
					t.Errorf("packet %d: tampered decrypt returned %v, want AUTH_FAIL", i, err)
				}
				authFails++
			case err != nil:
				t.Errorf("packet %d: %v", i, err)
			case decrypt && !bytes.Equal(out, c.payload):
				t.Errorf("packet %d: wrong plaintext", i)
			case !decrypt && !bytes.Equal(out, append(append([]byte(nil), c.ct...), c.tag...)):
				t.Errorf("packet %d: wrong ciphertext", i)
			default:
				ok++
			}
			if c.split {
				splitDone++
			} else {
				gcmDone++
			}
		}
		switch {
		case !decrypt:
			cc.Encrypt(c.ch, c.nonce, nil, c.payload, cb)
		case tamper:
			bad := append([]byte(nil), c.tag...)
			bad[0] ^= 1
			cc.Decrypt(c.ch, c.nonce, nil, c.ct, bad, cb)
		default:
			cc.Decrypt(c.ch, c.nonce, nil, c.ct, c.tag, cb)
		}
	}
	burst := func() {
		for n := 1 + rng.Intn(9); n > 0; n-- {
			decrypt := rng.Intn(2) == 0
			packet(chans[rng.Intn(len(chans))], decrypt, decrypt && rng.Intn(4) == 0)
		}
		tdIssued++
		dev.TransferDone(1+rng.Intn(retired), func(err error) {
			if err == nil {
				t.Error("TRANSFER_DONE for a retired request succeeded")
			}
			tdErrs++
		})
	}
	tasks0 := uint64(0)
	for _, c := range dev.Cores {
		tasks0 += c.Stats.Tasks
	}
	at := eng.Now()
	for k := 0; k < 60; k++ {
		at += sim.Time(100 + rng.Intn(4000))
		eng.At(at, burst)
	}
	for eng.Step() {
		if err := dev.CheckPools(); err != nil {
			t.Fatalf("cycle %d: %v", eng.Now(), err)
		}
	}

	for i, n := range fired {
		if n != 1 {
			t.Errorf("packet %d: callback fired %d times", i, n)
		}
	}
	if tdErrs != tdIssued {
		t.Errorf("%d TRANSFER_DONE callbacks for %d retired IDs", tdErrs, tdIssued)
	}
	var tasks uint64
	for _, c := range dev.Cores {
		tasks += c.Stats.Tasks
	}
	// A split request runs two tasks, a downgraded one a single task.
	downgraded := gcmDone + 2*splitDone - (tasks - tasks0)
	t.Logf("%d packets: %d ok, %d AUTH_FAIL, %d shed, %d queued, %d downgraded, %d Key Scheduler waits",
		len(fired), ok, authFails, shed, dev.Stats.Queued, downgraded, dev.KeySched.Waits)
	switch {
	case authFails == 0, shed == 0, dev.Stats.Queued == 0, downgraded == 0, dev.KeySched.Waits == 0:
		t.Error("the run missed a path it exists to cover")
	}
	if cc.Completions == 0 || dev.DataAvailable() {
		t.Error("device not drained")
	}
}

// TestAbandonedRequestNotRecycled: a controller may send the final
// TRANSFER_DONE before it retrieves the result (abandoning the data). The
// request is retired then, but its record still sits in the running core
// and then the done queue, so it must not be recycled until the collector
// takes it; RETRIEVE_DATA still reports it.
func TestAbandonedRequestNotRecycled(t *testing.T) {
	eng, dev := newDev(core.Config{Cores: 1})
	dev.KeyMem.Store(1, make([]byte, 16))
	var ch int
	dev.Open(core.Suite{Family: cryptocore.FamilyCTR}, 1, func(c int, _ error) { ch = c })
	eng.Run()
	var asg core.Assignment
	dev.Submit(ch, true, 0, 16, func(a core.Assignment, err error) {
		if err != nil {
			t.Fatal(err)
		}
		asg = a
	})
	eng.Run()
	acks := 0
	for i := 0; i < 2; i++ { // upload side, then the abandoning final one
		dev.TransferDone(asg.ReqID, func(err error) {
			if err != nil {
				t.Error(err)
			}
			acks++
		})
	}
	dev.WriteToCore(asg.CoreIDs[0], make([]uint32, 8), func() {})
	for eng.Step() {
		if err := dev.CheckPools(); err != nil {
			t.Fatalf("cycle %d: %v", eng.Now(), err)
		}
	}
	if acks != 2 || !dev.DataAvailable() {
		t.Fatalf("%d acknowledgements, result queued %v", acks, dev.DataAvailable())
	}
	dev.RetrieveData(func(r core.Retrieval, err error) {
		if err != nil || r.ReqID != asg.ReqID {
			t.Errorf("retrieved %+v, %v; want request %d", r, err, asg.ReqID)
		}
	})
	for eng.Step() {
		if err := dev.CheckPools(); err != nil {
			t.Fatalf("cycle %d: %v", eng.Now(), err)
		}
	}
}
