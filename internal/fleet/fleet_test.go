package fleet

import (
	"testing"

	"mccp/internal/cluster"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
)

func testCluster(t *testing.T, shards int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Shards:        shards,
		Router:        cluster.RouterLeastLoaded,
		QueueRequests: true,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func openSessions(t *testing.T, cl *cluster.Cluster, n int) []*cluster.Session {
	t.Helper()
	var out []*cluster.Session
	for i := 0; i < n; i++ {
		ses, err := cl.Open(cluster.OpenSpec{
			Suite:  core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16},
			KeyLen: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ses)
	}
	return out
}

func TestScaleDrainsAndReadmits(t *testing.T) {
	cl := testCluster(t, 4)
	f := New(cl)
	sessions := openSessions(t, cl, 8)
	if got := f.Active(); got != 4 {
		t.Fatalf("active = %d, want 4", got)
	}

	rep, err := f.Scale(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Active != 1 || f.Active() != 1 {
		t.Fatalf("scale-in report %+v, active %d", rep, f.Active())
	}
	for _, ses := range sessions {
		if ses.Shard() != 0 {
			t.Fatalf("session %d still on shard %d after scale-in", ses.ID(), ses.Shard())
		}
	}

	rep, err = f.Scale(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Active != 4 || rep.Moved == 0 {
		t.Fatalf("scale-out report %+v", rep)
	}
	perShard := map[int]int{}
	for _, ses := range sessions {
		perShard[ses.Shard()]++
	}
	if len(perShard) != 4 {
		t.Fatalf("sessions on %d shards after scale-out, want 4 (%v)", len(perShard), perShard)
	}

	if _, err := f.Scale(0); err == nil {
		t.Fatal("Scale(0) accepted")
	}
	if _, err := f.Scale(5); err == nil {
		t.Fatal("Scale(5) accepted on a 4-shard pool")
	}
}

func TestRollingSwapVisitsEveryShard(t *testing.T) {
	cl := testCluster(t, 3)
	f := New(cl)
	sessions := openSessions(t, cl, 6)

	want := SwapWindow(reconfig.EngineWhirlpool, reconfig.StagingRAM)
	var visited []int
	reports, err := f.RollingSwap(0, reconfig.EngineWhirlpool, reconfig.StagingRAM,
		func(shard int, window sim.Time) error {
			if window != want {
				t.Fatalf("window %d, want %d", window, want)
			}
			if cl.ShardActive(shard) {
				t.Fatalf("shard %d still active during its own swap", shard)
			}
			visited = append(visited, shard)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 || len(visited) != 3 {
		t.Fatalf("reports %v, visited %v", reports, visited)
	}
	for i, rep := range reports {
		if rep.Shard != i {
			t.Fatalf("report %d for shard %d, want rolling order", i, rep.Shard)
		}
		if rep.Took != want {
			t.Fatalf("shard %d swap took %d, want %d", rep.Shard, rep.Took, want)
		}
	}
	if got := f.Active(); got != 3 {
		t.Fatalf("active = %d after rolling swap, want 3", got)
	}
	// Every shard now exposes a Whirlpool core; traffic still flows.
	nonce := make([]byte, 12)
	if _, err := sessions[0].Encrypt(nonce, nil, []byte("post-swap traffic")); err != nil {
		t.Fatal(err)
	}
}
