package mccp_test

import (
	"testing"

	"mccp"
	"mccp/internal/bufpool"
	"mccp/internal/trafficgen"
)

// TestClusterPacketPathAllocs guards the cluster's steady-state packet
// path: a warm two-shard cluster with 16 DefaultMix sessions takes
// 64-packet EncryptAsync batches, each followed by Flush, and recycles
// every result buffer. Measured at 13.6 allocations per packet (15.9 at
// one shard, 11.0 at eight) on Go 1.24, with and without -race; the
// ceiling is 18. What is left is the device path itself (requests,
// continuations, engine events), not the front end.
func TestClusterPacketPathAllocs(t *testing.T) {
	const (
		shards, sessions, batchLen = 2, 16, 64
		warm, runs                 = 4, 20
		ceiling                    = 18
	)
	cl, err := mccp.NewCluster(mccp.ClusterConfig{Shards: shards, QueueRequests: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	type packet struct {
		ses         *mccp.ClusterSession
		nonce, data []byte
	}
	var pkts []packet
	for i := 0; i < sessions; i++ {
		std := trafficgen.DefaultMix[i%len(trafficgen.DefaultMix)]
		ses, err := cl.Open(mccp.ClusterOpenSpec{
			Suite:  mccp.Suite{Family: std.Family, TagLen: std.TagLen, SplitCCM: std.Split},
			KeyLen: std.KeyLen,
		})
		if err != nil {
			t.Fatal(err)
		}
		nonce := make([]byte, 12)
		if std.Family == mccp.CCM {
			nonce = make([]byte, 13)
		}
		pkts = append(pkts, packet{ses, nonce, make([]byte, (std.MinBytes+std.MaxBytes)/2)})
	}
	done := 0
	cb := func(out []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		bufpool.PutBytes(out)
		done++
	}
	batch := func() {
		for i := 0; i < batchLen; i++ {
			p := pkts[i%sessions]
			p.ses.EncryptAsync(p.nonce, nil, p.data, cb)
		}
		cl.Flush()
	}
	for i := 0; i < warm; i++ {
		batch() // warm the pools, rings and key caches
	}
	perPacket := testing.AllocsPerRun(runs, batch) / batchLen
	// AllocsPerRun calls batch once more, untimed, before its runs.
	if want := (warm + 1 + runs) * batchLen; done != want {
		t.Fatalf("%d packets completed, want %d", done, want)
	}
	if perPacket > ceiling {
		t.Errorf("cluster packet path allocates %.1f objects per packet, ceiling %d", perPacket, ceiling)
	}
	t.Logf("%.2f allocs/packet at %d shards (ceiling %d)", perPacket, shards, ceiling)
}
