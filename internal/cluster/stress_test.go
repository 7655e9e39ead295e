package cluster

import (
	"reflect"
	"testing"

	"mccp/internal/trafficgen"
)

// TestParallelDrainStress is the pipelined dispatcher's contract test,
// designed to run under -race: large concurrent EncryptAsync bursts
// across 8 shards with irregular flush points, asserting that (1) every
// callback is delivered on the caller's goroutine in exact enqueue order
// — the sequence-numbered merge of 8 concurrent completion streams — and
// (2) per-shard output digests are stable across runs. Burst sizes
// exceed BatchWindow x RingDepth so dispatch exercises ring backpressure,
// and the tiny ring depth forces maximum interleaving between the front
// end and the shard goroutines.
func TestParallelDrainStress(t *testing.T) {
	const (
		shards  = 8
		packets = 1200
	)
	run := func() ([]int, []uint64) {
		cl, err := New(Config{
			Shards:        shards,
			Router:        RouterLeastLoaded,
			QueueRequests: true,
			Seed:          7,
			BatchWindow:   24,
			RingDepth:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		var sessions []*Session
		for i, std := range []trafficgen.Standard{
			trafficgen.VoiceUMTS, trafficgen.WiFiCCMP, trafficgen.WiMaxGCM, trafficgen.VideoGCM256,
		} {
			for k := 0; k < 4; k++ { // 16 sessions over 8 shards
				ses, err := cl.Open(OpenSpec{Suite: trafficgen.SuiteFor(std), KeyLen: std.KeyLen})
				if err != nil {
					t.Fatalf("open %d/%d: %v", i, k, err)
				}
				sessions = append(sessions, ses)
			}
		}

		gen := trafficgen.NewGenerator(99, trafficgen.DefaultMix)
		order := make([]int, 0, packets)
		digests := make([]uint64, shards)
		for i := range digests {
			digests[i] = 0xcbf29ce484222325
		}
		for p := 0; p < packets; p++ {
			p := p
			si := p % len(sessions)
			ses := sessions[si]
			pkt := gen.Next(si/4, ses.ID()) // standard matching the session's suite
			shardID := ses.Shard()
			ses.EncryptAsync(pkt.Nonce, pkt.AAD, pkt.Payload, func(out []byte, err error) {
				if err != nil {
					t.Errorf("packet %d: %v", p, err)
				}
				order = append(order, p)
				d := digests[shardID]
				for _, by := range out {
					d = (d ^ uint64(by)) * 0x100000001b3
				}
				digests[shardID] = d
				trafficgen.ReleasePacket(pkt)
			})
			// Irregular explicit flush points on top of the automatic
			// BatchWindow dispatches.
			if p%317 == 316 {
				cl.Flush()
			}
		}
		cl.Flush()
		if len(order) != packets {
			t.Fatalf("delivered %d/%d callbacks", len(order), packets)
		}
		for i, p := range order {
			if p != i {
				t.Fatalf("callback order broken at %d: got packet %d", i, p)
			}
		}
		return order, digests
	}

	_, d1 := run()
	_, d2 := run()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("per-shard digests not stable across runs:\n%#x\n%#x", d1, d2)
	}
}
