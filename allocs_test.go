package mccp_test

import (
	"runtime"
	"testing"
	"time"

	"mccp"
	"mccp/internal/arrivals"
	"mccp/internal/bufpool"
	"mccp/internal/cluster"
	"mccp/internal/harness"
	"mccp/internal/qos"
	"mccp/internal/trafficgen"
)

// TestTable2HostBudget is the host-speed smoke check: simulating the Table
// II cell Table2_GCM_1core_128 once must take under 60 s of wall clock. A
// healthy run takes well under a second, even under -race, so the budget
// trips on a catastrophic simulation-kernel regression, not on a slow
// machine.
func TestTable2HostBudget(t *testing.T) {
	const name, budget = "Table2_GCM_1core_128", 60 * time.Second
	for _, exp := range harness.Experiments {
		for _, p := range exp.Points {
			if p.Name != name {
				continue
			}
			start := time.Now()
			p.Run()
			took := time.Since(start)
			if took > budget {
				t.Fatalf("%s took %v (budget %v): the simulation kernel has regressed catastrophically", name, took, budget)
			}
			t.Logf("%s took %v (budget %v)", name, took, budget)
			return
		}
	}
	t.Fatalf("no registered point is named %s", name)
}

// TestClusterPacketPathAllocs guards the cluster's steady-state packet
// path: a warm two-shard cluster with 16 DefaultMix sessions takes
// 64-packet EncryptAsync batches, each followed by Flush, and recycles
// every result buffer. The device below it allocates nothing per packet
// (internal/radio's TestDevicePacketPathAllocs), so what is left is the
// front end's per-batch cost: measured at 0.09 allocations per packet
// (0.06 at one shard, 0.22 at eight) on Go 1.24, with and without -race.
// The ceiling is 1.
func TestClusterPacketPathAllocs(t *testing.T) {
	const (
		shards, sessions, batchLen = 2, 16, 64
		warm, runs                 = 4, 20
		ceiling                    = 1
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

// TestClusterOpenLoopAllocs is the open-loop sibling of
// TestClusterPacketPathAllocs: a warm two-shard shaped cluster runs one
// 500 000-cycle window of Poisson arrivals of harness.LoadMix at
// 2000 Mbps (about 0.8 of its knee), and the whole process's allocations
// over the window, window bookkeeping included, are divided by the
// packets submitted in it: 1.34 on Go 1.24, about one of which is the
// nonce arrivals.StampNonce allocates per arrival. The ceiling is 2, so a
// completion closure per arrival or a result buffer kept from the pool
// (one each per packet) fails it.
func TestClusterOpenLoopAllocs(t *testing.T) {
	const ceiling = 2
	cl, err := cluster.New(cluster.Config{
		Shards: 2, CoresPerShard: 4,
		Router: cluster.RouterQoSAware, Policy: "qos-priority",
		QueueRequests: true, Seed: 1,
		Shape: true, Shaper: qos.Config{Capacity: 32, QueueDepth: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	runner, err := cluster.NewOpenLoopRunner(cl, cluster.OpenLoopRunnerConfig{
		Process: arrivals.ProcPoisson, Profiles: harness.LoadMix, OfferedMbps: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	if _, err := runner.RunWindow(125_000); err != nil { // warm the pools, rings and key caches
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := runner.RunWindow(500_000)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var submitted uint64
	for _, c := range w.Classes {
		submitted += c.Submitted
	}
	if submitted == 0 || w.Errors != 0 {
		t.Fatalf("window submitted %d packets with %d unexpected verdicts", submitted, w.Errors)
	}
	perPacket := float64(after.Mallocs-before.Mallocs) / float64(submitted)
	if perPacket > ceiling {
		t.Errorf("open-loop packet path allocates %.2f objects per packet, ceiling %d", perPacket, ceiling)
	}
	t.Logf("%.2f allocs/packet over %d packets (ceiling %d)", perPacket, submitted, ceiling)
}
