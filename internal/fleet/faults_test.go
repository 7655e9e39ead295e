package fleet

import (
	"sync"
	"sync/atomic"
	"testing"

	"mccp/internal/cluster"
	"mccp/internal/reconfig"
)

// TestScaleSkipsQuarantinedShards: after a fail-over the corpse is not
// capacity — Scale assigns the serving set from the healthy pool only,
// and nothing can re-admit the quarantined shard.
func TestScaleSkipsQuarantinedShards(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Shards: 3, Router: cluster.RouterLeastLoaded,
		QueueRequests: true, Seed: 23, Shape: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := New(cl)
	sessions := openSessions(t, cl, 6)

	rep, err := f.FailOver(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved+rep.Lost == 0 && sessionsOn(sessions, 1) > 0 {
		t.Fatalf("fail-over left sessions on the corpse: %+v", rep)
	}
	for _, ses := range sessions {
		if !ses.Closed() && ses.Shard() == 1 {
			t.Fatalf("session %d still homed on quarantined shard", ses.ID())
		}
	}
	if err := cl.SetShardActive(1, true); err == nil {
		t.Fatal("quarantined shard re-admitted by SetShardActive")
	}
	if _, err := f.Scale(3); err == nil {
		t.Fatal("Scale(3) accepted with only 2 healthy shards")
	}
	if _, err := f.Scale(2); err != nil {
		t.Fatal(err)
	}
	if !cl.ShardActive(0) || cl.ShardActive(1) || !cl.ShardActive(2) {
		t.Fatalf("Scale(2) serving set: %v %v %v, want shards 0 and 2",
			cl.ShardActive(0), cl.ShardActive(1), cl.ShardActive(2))
	}
	if _, err := f.Scale(1); err != nil {
		t.Fatal(err)
	}
	if f.Active() != 1 || cl.ShardActive(1) {
		t.Fatalf("Scale(1) active=%d, corpse active=%v", f.Active(), cl.ShardActive(1))
	}
}

func sessionsOn(sessions []*cluster.Session, shard int) int {
	n := 0
	for _, ses := range sessions {
		if !ses.Closed() && ses.Shard() == shard {
			n++
		}
	}
	return n
}

// TestSnapshotDuringScaleStress hammers Snapshot (and the other
// any-goroutine metrics surfaces) from readers while the front end
// scales in and out and rolling-swaps — the torn-read hunt this test
// exists for runs under -race in CI.
func TestSnapshotDuringScaleStress(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Shards: 4, Router: cluster.RouterLeastLoaded,
		QueueRequests: true, Seed: 29, Shape: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := New(cl)
	openSessions(t, cl, 16)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				m := cl.Snapshot()
				if len(m.Shards) != 4 {
					t.Errorf("snapshot saw %d shards", len(m.Shards))
					return
				}
				active := 0
				for i, sh := range m.Shards {
					if sh.Active {
						active++
					}
					_ = cl.NextHeartbeat(i)
					_ = cl.QuarantinedShard(i)
				}
				if active < 1 || active > 4 {
					t.Errorf("snapshot saw %d active shards", active)
					return
				}
			}
		}()
	}
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters && !t.Failed(); i++ {
		if _, err := f.Scale(1 + i%4); err != nil {
			t.Errorf("scale: %v", err)
			break
		}
		if i%8 == 3 {
			if _, err := f.RollingSwap(0, reconfig.EngineWhirlpool, reconfig.StagingRAM, nil); err != nil {
				t.Errorf("rolling swap: %v", err)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
