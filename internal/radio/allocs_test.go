package radio_test

import (
	"testing"

	"mccp/internal/bufpool"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
)

// TestDevicePacketPathAllocs: once warm, a packet's whole round trip
// through the communication controller and the device (submit, decode,
// core pick, key staging, parameter writes, upload, firmware, retrieval,
// download, both TRANSFER_DONEs) allocates nothing, for every mapping and
// direction. The miss cases rotate over more keys than a Key Cache holds,
// so every packet goes through the Key Scheduler; the burst case keeps
// eight packets in flight on four cores, so requests and Key Scheduler
// jobs queue. Result buffers go back to bufpool, as the cluster drivers
// return them.
func TestDevicePacketPathAllocs(t *testing.T) {
	gcm := core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}
	ccm := core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8}
	split := core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8, SplitCCM: true}
	cases := []struct {
		name    string
		suite   core.Suite
		decrypt bool
		keys    int // channels, one key each, used in rotation
		burst   int // packets submitted before the engine runs
	}{
		{"gcm/encrypt", gcm, false, 1, 1},
		{"gcm/decrypt", gcm, true, 1, 1},
		{"ccm/encrypt", ccm, false, 1, 1},
		{"ccm/decrypt", ccm, true, 1, 1},
		{"split-ccm/encrypt", split, false, 1, 1},
		{"split-ccm/decrypt", split, true, 1, 1},
		{"gcm/key-miss", gcm, false, 8, 1},
		{"split-ccm/key-miss", split, true, 8, 1},
		{"gcm/burst-key-miss", gcm, false, 32, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(core.Config{Cores: 4, QueueRequests: true})
			payload := make([]byte, 200)
			nonce := make([]byte, 12)
			if tc.suite.Family == cryptocore.FamilyCCM {
				nonce = make([]byte, 13)
			}
			type channel struct {
				ch      int
				ct, tag []byte
			}
			chans := make([]channel, tc.keys)
			for i := range chans {
				ch, _ := r.open(t, tc.suite, 16)
				sealed := r.encrypt(t, ch, nonce, nil, payload)
				chans[i] = channel{ch, sealed[:len(payload)], sealed[len(payload):]}
			}
			done, next := 0, 0
			cb := func(out []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				bufpool.PutBytes(out)
				done++
			}
			round := func() {
				for i := 0; i < tc.burst; i++ {
					c := chans[next%len(chans)]
					next++
					if tc.decrypt {
						r.cc.Decrypt(c.ch, nonce, nil, c.ct, c.tag, cb)
					} else {
						r.cc.Encrypt(c.ch, nonce, nil, payload, cb)
					}
				}
				r.eng.Run()
			}
			for i := 0; i < 4*tc.keys; i++ {
				round() // warm the pools, queues, maps and key schedules
			}
			exp0, queued0 := r.dev.KeySched.Expansions, r.dev.Stats.Queued
			const runs = 200
			allocs := testing.AllocsPerRun(runs, round)
			if want := (4*tc.keys + runs + 1) * tc.burst; done != want {
				t.Fatalf("%d packets completed, want %d", done, want)
			}
			if tc.keys > 1 && r.dev.KeySched.Expansions-exp0 < runs {
				t.Fatalf("%d Key Scheduler expansions in %d rounds: the keys did not miss", r.dev.KeySched.Expansions-exp0, runs)
			}
			if tc.burst > len(r.dev.Cores) && r.dev.Stats.Queued == queued0 {
				t.Fatal("no request queued in the burst rounds")
			}
			if allocs != 0 {
				t.Errorf("%.2f allocations per round of %d packets, want 0", allocs, tc.burst)
			}
		})
	}
}
