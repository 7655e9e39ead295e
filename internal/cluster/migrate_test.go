package cluster

import (
	"errors"
	"testing"

	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
)

// voiceGCM is the suite of the migration tests' sessions: high priority,
// so shardHPWeight is exercised alongside shardWeight.
var voiceGCM = core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16, Priority: 3}

func openVoice(t *testing.T, cl *Cluster, weight int) *Session {
	t.Helper()
	ses, err := cl.Open(OpenSpec{Suite: voiceGCM, KeyLen: 16, Weight: weight})
	if err != nil {
		t.Fatal(err)
	}
	return ses
}

// firstOn returns the lowest-ID session homed on shard.
func firstOn(t *testing.T, sessions []*Session, shard int) *Session {
	t.Helper()
	for _, ses := range sessions {
		if ses.Shard() == shard {
			return ses
		}
	}
	t.Fatalf("no session homed on shard %d", shard)
	return nil
}

// TestRefusedReopenIsLost drives every migration caller through a re-open
// the new shard refuses: the victim's key is cut to 8 bytes, so the Key
// Memory's own length check rejects the install. Whatever the caller, the
// victim is Lost and Closed, nothing panics, the session population is
// conserved (before = after + lost), and the routing weights still equal
// the sums over the sessions left open.
func TestRefusedReopenIsLost(t *testing.T) {
	cases := []struct {
		name   string
		router string
		// setup opens the sessions and returns the one the migration moves.
		setup   func(t *testing.T, cl *Cluster) *Session
		migrate func(cl *Cluster) (MoveReport, error)
	}{
		{
			name:   "Rebalance",
			router: RouterLeastLoaded,
			setup: func(t *testing.T, cl *Cluster) *Session {
				heavy := openVoice(t, cl, 10) // -> shard 0
				a := openVoice(t, cl, 1)      // -> shard 1
				openVoice(t, cl, 1)           // -> shard 1
				if err := heavy.Close(); err != nil {
					t.Fatal(err)
				}
				return a // the lowest ID moves into the emptied shard 0
			},
			migrate: func(cl *Cluster) (MoveReport, error) { return cl.Rebalance(), nil },
		},
		{
			name:   "Reconfigure",
			router: RouterFamilyAffinity,
			setup: func(t *testing.T, cl *Cluster) *Session {
				var all []*Session
				for i := 0; i < 4; i++ {
					all = append(all, openVoice(t, cl, 1))
				}
				return firstOn(t, all, 1) // AES sessions flee the Whirlpool shard
			},
			migrate: func(cl *Cluster) (MoveReport, error) {
				_, rep, err := cl.Reconfigure(1, 0, reconfig.EngineWhirlpool, reconfig.StagingRAM)
				return rep, err
			},
		},
		{
			name:   "FailOver",
			router: RouterLeastLoaded,
			setup: func(t *testing.T, cl *Cluster) *Session {
				var all []*Session
				for i := 0; i < 4; i++ {
					all = append(all, openVoice(t, cl, 1))
				}
				return firstOn(t, all, 1)
			},
			migrate: func(cl *Cluster) (MoveReport, error) { return cl.FailOver(1) },
		},
		{
			name:   "RebalanceInto",
			router: RouterLeastLoaded,
			setup: func(t *testing.T, cl *Cluster) *Session {
				if err := cl.SetShardActive(1, false); err != nil {
					t.Fatal(err)
				}
				a := openVoice(t, cl, 1) // both -> shard 0
				openVoice(t, cl, 1)
				if err := cl.SetShardActive(1, true); err != nil {
					t.Fatal(err)
				}
				return a // the lowest ID is offered to the rejoined shard first
			},
			migrate: func(cl *Cluster) (MoveReport, error) { return cl.RebalanceInto(1) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(Config{Shards: 2, Router: tc.router, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			victim := tc.setup(t, cl)
			population := func() int {
				n := 0
				for _, sm := range cl.Snapshot().Shards {
					n += sm.Sessions
				}
				return n
			}
			before := population()
			victim.keyLen = 8

			rep, err := tc.migrate(cl)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Lost != 1 {
				t.Fatalf("report %+v, want exactly the victim lost", rep)
			}
			if after := population(); before != after+rep.Lost {
				t.Fatalf("population %d before, %d after + %d lost", before, after, rep.Lost)
			}
			if !victim.Closed() {
				t.Fatal("lost session does not report Closed")
			}
			if _, ok := cl.sessions[victim.ID()]; ok {
				t.Fatal("lost session still registered")
			}
			weight := make([]int, cl.Shards())
			hp := make([]int, cl.Shards())
			count := make([]int64, cl.Shards())
			for _, ses := range cl.sessions {
				weight[ses.shardID] += ses.weight
				if ses.hp {
					hp[ses.shardID] += ses.weight
				}
				count[ses.shardID]++
			}
			for i := range weight {
				if cl.shardWeight[i] != weight[i] || cl.shardHPWeight[i] != hp[i] || cl.shardSessions[i].Load() != count[i] {
					t.Fatalf("shard %d routing state weight=%d hp=%d sessions=%d, open sessions sum to %d/%d/%d",
						i, cl.shardWeight[i], cl.shardHPWeight[i], cl.shardSessions[i].Load(), weight[i], hp[i], count[i])
				}
			}
			// Every session the migration kept still serves.
			for _, ses := range cl.sessions {
				if _, err := ses.Encrypt(make([]byte, 12), nil, []byte("kept")); err != nil {
					t.Fatalf("session %d on shard %d: %v", ses.ID(), ses.Shard(), err)
				}
			}
		})
	}
}

// crashedHashShard builds two shaped shards with shard 1 carrying a
// Whirlpool core and a hash session homed there, then crashes shard 1.
func crashedHashShard(t *testing.T) (*Cluster, *Session) {
	t.Helper()
	cl, err := New(Config{Shards: 2, Router: RouterFamilyAffinity, Seed: 37, Shape: true,
		Shaper: qos.Config{Capacity: 8, QueueDepth: 32}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if _, _, err := cl.Reconfigure(1, 0, reconfig.EngineWhirlpool, reconfig.StagingRAM); err != nil {
		t.Fatal(err)
	}
	hs, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyHash}})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Shard() != 1 {
		t.Fatalf("hash session homed on shard %d, want 1", hs.Shard())
	}
	if err := cl.ArmShardCrash(1, cl.NextHeartbeat(1), 0); err != nil {
		t.Fatal(err)
	}
	// The digest in flight when the crash fires still completes.
	if _, err := hs.Sum([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if !cl.Snapshot().Shards[1].Crashed {
		t.Fatal("armed crash did not fire")
	}
	return cl, hs
}

// TestHashOnCrashedShardFails: a hash submitted to a crashed shard fails
// with ErrShardDown like every other packet there, although hashes bypass
// the shaper that the crash kills.
func TestHashOnCrashedShardFails(t *testing.T) {
	_, hs := crashedHashShard(t)
	if digest, err := hs.Sum([]byte("after")); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Sum on a crashed shard returned %x, %v; want ErrShardDown", digest, err)
	}
}

// TestRebalanceLosesSessionStrandedOnQuarantine: a shard quarantined
// without FailOver still homes its sessions; the next Rebalance must take
// each of them off the corpse, and one no other shard can serve (no other
// Whirlpool core) is Lost rather than left there, so Restart can rebuild
// the shard.
func TestRebalanceLosesSessionStrandedOnQuarantine(t *testing.T) {
	cl, hs := crashedHashShard(t)
	if err := cl.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	rep := cl.Rebalance()
	if rep.Moved != 0 || rep.Lost != 1 {
		t.Fatalf("rebalance %+v, want the stranded hash session lost", rep)
	}
	if !hs.Closed() {
		t.Fatal("stranded session not closed")
	}
	if sm := cl.Snapshot().Shards[1]; sm.Sessions != 0 {
		t.Fatalf("corpse still counts %d sessions", sm.Sessions)
	}
	if _, err := cl.Restart(1, reconfig.FastICAP); err != nil {
		t.Fatal(err)
	}
}
