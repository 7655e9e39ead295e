// Cluster walkthrough: run four independent MCCP shards behind one front
// end — route sessions, batch packet dispatch, reconfigure a shard for
// Whirlpool, watch sessions re-home, and read the aggregated metrics.
package main

import (
	"fmt"
	"log"

	"mccp"
)

func main() {
	// Four shards, each a full four-core MCCP with its own simulation
	// engine and goroutine. family-affinity routing keeps block-cipher
	// traffic away from shards with reconfigured (Whirlpool) cores.
	cl, err := mccp.NewCluster(mccp.ClusterConfig{
		Shards:        4,
		Router:        mccp.RouterFamilyAffinity,
		QueueRequests: true,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Open eight GCM sessions; the router spreads them across shards.
	// Each session gets a deterministic key, provisioned on its shard.
	var sessions []*mccp.ClusterSession
	for i := 0; i < 8; i++ {
		ses, err := cl.Open(mccp.ClusterOpenSpec{
			Suite:  mccp.Suite{Family: mccp.GCM, TagLen: 16},
			KeyLen: 16,
		})
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, ses)
		fmt.Printf("session %d -> shard %d\n", ses.ID(), ses.Shard())
	}

	// Submit a burst asynchronously: the dispatcher coalesces packets per
	// shard and each shard drains its engine once per batch. Callbacks
	// fire in submission order during Flush.
	nonce := make([]byte, 12)
	completed := 0
	for p := 0; p < 32; p++ {
		payload := make([]byte, 512+32*p)
		sessions[p%len(sessions)].EncryptAsync(nonce, nil, payload, func(out []byte, err error) {
			if err != nil {
				log.Fatal(err)
			}
			completed++
		})
	}
	cl.Flush()
	fmt.Printf("\nburst of 32 packets completed: %d\n", completed)

	// Reconfigure one core of shard 3 to Whirlpool (partial bitstream
	// from staging RAM, as in the paper's Table IV). family-affinity now
	// prefers other shards for AES work, so GCM sessions homed on shard 3
	// are transparently re-opened elsewhere.
	took, moves, err := cl.Reconfigure(3, 0, mccp.EngineWhirlpool, mccp.FromRAM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshard 3 core 0 -> Whirlpool in %d cycles (~%.0f ms); %d sessions re-homed\n",
		took, float64(took)/190e6*1e3, moves.Moved)
	for _, ses := range sessions {
		fmt.Printf("session %d now on shard %d\n", ses.ID(), ses.Shard())
	}

	// Hash traffic is steered to the reconfigured shard.
	hash, err := cl.Open(mccp.ClusterOpenSpec{Suite: mccp.Suite{Family: mccp.Hash}})
	if err != nil {
		log.Fatal(err)
	}
	digest, err := hash.Sum([]byte("hashing service on shard 3"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhash session -> shard %d, digest %x...\n", hash.Shard(), digest[:8])

	// Aggregated metrics: per-shard and total packets, simulated Mbps at
	// virtual time, and the host-side wall-clock figure.
	fmt.Println()
	fmt.Print(cl.Metrics().Format())
}
