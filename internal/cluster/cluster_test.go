package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"mccp/internal/arrivals"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/trafficgen"
	"mccp/internal/whirlpool"
)

func TestClusterRoundtrip(t *testing.T) {
	cl, err := New(Config{Shards: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	payload := []byte("sharded multi-MCCP service layer")
	sealed, err := ses.Encrypt(nonce, []byte("hdr"), payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != len(payload)+16 {
		t.Fatalf("sealed length %d", len(sealed))
	}
	plain, err := ses.Decrypt(nonce, []byte("hdr"), sealed[:len(payload)], sealed[len(payload):])
	if err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("roundtrip: %v", err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.Packets < 2 || m.ClusterCycles == 0 {
		t.Fatalf("metrics did not count: %+v", m)
	}
}

// TestClusterBatchDispatch verifies that async submissions coalesce into
// batches (far fewer engine drains than packets) and complete in enqueue
// order.
func TestClusterBatchDispatch(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterLeastLoaded, QueueRequests: true, BatchWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var sessions []*Session
	for i := 0; i < 4; i++ {
		ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, ses)
	}
	const packets = 48
	var got []int
	nonce := make([]byte, 12)
	for p := 0; p < packets; p++ {
		p := p
		sessions[p%len(sessions)].EncryptAsync(nonce, nil, make([]byte, 256), func(out []byte, err error) {
			if err != nil {
				t.Errorf("packet %d: %v", p, err)
			}
			got = append(got, p)
		})
	}
	cl.Flush()
	if len(got) != packets {
		t.Fatalf("completed %d/%d", len(got), packets)
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("callback order broken at %d: got packet %d", i, p)
		}
	}
	m := cl.Metrics()
	// 48 packets over BatchWindow=16 on 2 shards: at most 3 auto-flush
	// rounds x 2 shards + the final explicit Flush (plus the per-open
	// flushes, each 1 batch) — far fewer batches than packets.
	if m.Batches >= packets {
		t.Fatalf("dispatch not batched: %d batches for %d packets", m.Batches, packets)
	}
	if m.Packets != packets+0 {
		t.Fatalf("metrics packets = %d", m.Packets)
	}
}

// TestRouterHashByKey pins sessions by key hash: the same cluster seed
// must give the same placement, and every shard-eligible family works.
func TestRouterHashByKey(t *testing.T) {
	place := func() []int {
		cl, err := New(Config{Shards: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var homes []int
		for i := 0; i < 8; i++ {
			ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16})
			if err != nil {
				t.Fatal(err)
			}
			homes = append(homes, ses.Shard())
		}
		return homes
	}
	a, b := place(), place()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("hash-by-key placement not reproducible: %v vs %v", a, b)
	}
}

// TestRouterLeastLoadedSpread checks weight-greedy balance: equal-weight
// sessions spread one per shard before any doubles up.
func TestRouterLeastLoadedSpread(t *testing.T) {
	cl, err := New(Config{Shards: 4, Router: RouterLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	counts := make([]int, 4)
	for i := 0; i < 8; i++ {
		ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8}, KeyLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		counts[ses.Shard()]++
	}
	for i, n := range counts {
		if n != 2 {
			t.Fatalf("shard %d has %d sessions, want 2 (%v)", i, n, counts)
		}
	}
}

// TestFamilyAffinityAndReconfigure exercises the full re-homing story:
// hash sessions are impossible before a reconfiguration, then steered to
// the reconfigured shard; AES sessions already homed there flee it; and
// the digests still verify after the moves.
func TestFamilyAffinityAndReconfigure(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterFamilyAffinity, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyHash}}); err == nil {
		t.Fatal("hash session opened with no Whirlpool shard")
	}

	// Fill both shards with AES sessions (least-loaded spread).
	var aes []*Session
	for i := 0; i < 4; i++ {
		ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		aes = append(aes, ses)
	}
	// Reconfigure both cores... no: swap two cores of shard 1 to Whirlpool.
	took, moves, err := cl.Reconfigure(1, 0, reconfig.EngineWhirlpool, reconfig.StagingRAM)
	if err != nil {
		t.Fatal(err)
	}
	if took == 0 {
		t.Fatal("reconfiguration took no virtual time")
	}
	// family-affinity now prefers shard 0 for AES traffic: the sessions
	// homed on shard 1 must have been transparently re-opened on shard 0.
	if moves.Moved == 0 {
		t.Fatal("no AES session fled the reconfigured shard")
	}
	for _, ses := range aes {
		if ses.Shard() != 0 {
			t.Fatalf("AES session %d still on reconfigured shard", ses.ID())
		}
	}

	// Hash traffic now routes to shard 1 and produces correct digests.
	hs, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyHash}})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Shard() != 1 {
		t.Fatalf("hash session homed on shard %d, want 1", hs.Shard())
	}
	msg := []byte("steered to the reconfigured shard")
	digest, err := hs.Sum(msg)
	if err != nil {
		t.Fatal(err)
	}
	want := whirlpool.Sum(msg)
	if !bytes.Equal(digest, want[:]) {
		t.Fatal("digest mismatch after routing")
	}

	// Moved AES sessions still encrypt/decrypt correctly (their key was
	// re-installed on the new shard).
	nonce := make([]byte, 12)
	payload := []byte("moved and still serving")
	sealed, err := aes[0].Encrypt(nonce, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := aes[0].Decrypt(nonce, nil, sealed[:len(payload)], sealed[len(payload):])
	if err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("post-move roundtrip: %v", err)
	}
}

// TestRouterQoSAware covers both halves of QoS-aware placement: voice
// sessions spread by high-priority weight, and bulk sessions steer away
// from the shards voice landed on.
func TestRouterQoSAware(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterQoSAware, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	open := func(prio, weight int) *Session {
		ses, err := cl.Open(OpenSpec{
			Suite:  core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8, Priority: prio},
			KeyLen: 16,
			Weight: weight,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ses
	}
	voice := open(3, 4) // -> shard 0 (all empty, lowest ID)
	if voice.Shard() != 0 {
		t.Fatalf("voice homed on shard %d, want 0", voice.Shard())
	}
	// Background avoids the voice shard even though shard 1 will end up
	// with more sessions: the doubled high-priority weight dominates.
	bg1 := open(0, 1)
	bg2 := open(0, 1)
	if bg1.Shard() != 1 || bg2.Shard() != 1 {
		t.Fatalf("background homed on %d/%d, want both on 1 (away from voice)",
			bg1.Shard(), bg2.Shard())
	}
	// A second voice session balances high-priority weight, not total
	// weight: shard 1 carries 2 bulk sessions but zero voice, so it wins.
	voice2 := open(3, 4)
	if voice2.Shard() != 1 {
		t.Fatalf("second voice homed on shard %d, want 1 (hp-weight balance)", voice2.Shard())
	}
	// With voice now on both shards, the bulk pair concentrated on shard 1
	// is no longer optimal: Rebalance moves exactly one background session
	// next to the lighter voice shard, evening out the bulk load too.
	if moved := cl.Rebalance().Moved; moved != 1 {
		t.Fatalf("rebalance moved %d sessions, want 1", moved)
	}
	if bg1.Shard() == bg2.Shard() {
		t.Fatal("rebalance left both background sessions on one shard")
	}
	if voice.Shard() != 0 || voice2.Shard() != 1 {
		t.Fatal("rebalance disturbed the voice spread")
	}
}

// TestClusterShedCounters: a bounded per-shard queue shows overflow as
// Shed (distinct from Rejected and Queued), and the workload error count
// matches the metric — the same three-way split the single device
// reports.
func TestClusterShedCounters(t *testing.T) {
	res, err := RunWorkload(WorkloadConfig{
		Shards: 1, Router: RouterLeastLoaded, QueueRequests: true, MaxQueue: 2,
		Packets: 48, Sessions: 6, Seed: 2, BatchWindow: 48, ShardWindow: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Shed == 0 {
		t.Fatalf("bounded queue never shed: %+v", m)
	}
	if m.Rejected != 0 {
		t.Fatalf("queueing on: rejects must be shed instead, got %d", m.Rejected)
	}
	if uint64(res.Errors) != m.Shed {
		t.Fatalf("workload errors %d != shed %d", res.Errors, m.Shed)
	}
	if m.Queued == 0 {
		t.Fatal("no request ever waited in the bounded queue")
	}
}

// TestWorkloadClassBreakdown: the mixed workload's per-class counters
// cover every class in the QoS mix and sum to the packet total.
func TestWorkloadClassBreakdown(t *testing.T) {
	res, err := RunWorkload(WorkloadConfig{
		Shards: 2, Router: RouterQoSAware, QueueRequests: true,
		Mix:     trafficgen.QoSMix,
		Packets: 32, Sessions: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for c, n := range res.ClassPackets {
		if n == 0 {
			t.Errorf("class %d completed no packets", c)
		}
		total += n
	}
	if total != 32 || res.Metrics.Packets != 32 {
		t.Fatalf("class packets sum %d, metrics %d, want 32", total, res.Metrics.Packets)
	}
}

// TestRebalanceMovesSessions creates a load skew by closing a heavy
// session and verifies an explicit Rebalance under least-loaded re-homes
// a session onto the emptied shard — and is a no-op when placement is
// already optimal.
func TestRebalanceMovesSessions(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterLeastLoaded, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	open := func(weight int) *Session {
		ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16, Weight: weight})
		if err != nil {
			t.Fatal(err)
		}
		return ses
	}
	heavy := open(10) // -> shard 0
	a := open(1)      // -> shard 1
	b := open(1)      // -> shard 1 (1 < 10)
	if heavy.Shard() != 0 || a.Shard() != 1 || b.Shard() != 1 {
		t.Fatalf("unexpected placement: %d/%d/%d", heavy.Shard(), a.Shard(), b.Shard())
	}
	if moved := cl.Rebalance().Moved; moved != 0 {
		t.Fatalf("rebalance moved %d sessions from an optimal placement", moved)
	}
	if err := heavy.Close(); err != nil {
		t.Fatal(err)
	}
	// Shard 0 is now empty; exactly one of the light sessions must move.
	if moved := cl.Rebalance().Moved; moved != 1 {
		t.Fatalf("rebalance moved %d sessions, want 1", moved)
	}
	if a.Shard() == b.Shard() {
		t.Fatal("rebalance left both sessions on one shard")
	}
	// The moved session still works on its new home.
	nonce := make([]byte, 12)
	payload := []byte("re-homed")
	sealed, err := a.Encrypt(nonce, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := a.Decrypt(nonce, nil, sealed[:len(payload)], sealed[len(payload):]); err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("post-move roundtrip: %v", err)
	}
}

// TestKeyMemoryDoesNotGrow: every session key a shard's Key Memory takes at
// open or re-home leaves it again when the channel closes there — 1000
// sessions and a Rebalance later each shard holds as many keys as it
// started with.
func TestKeyMemoryDoesNotGrow(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterLeastLoaded, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := func() []int {
		cl.Flush()
		n := make([]int, len(cl.shards))
		for i, sh := range cl.shards {
			n[i] = sh.dev.KeyMem.Len()
		}
		return n
	}
	open := func(weight int) *Session {
		ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16, Weight: weight})
		if err != nil {
			t.Fatal(err)
		}
		return ses
	}
	start := keys()
	nonce, payload := make([]byte, 12), []byte("keyed")
	moved := 0
	for round := 0; round < 250; round++ {
		// The placement of TestRebalanceMovesSessions: closing the heavy
		// session leaves its shard empty, so Rebalance re-homes a light one.
		ses := []*Session{open(10), open(1), open(1), open(1)}
		if _, err := ses[1].Encrypt(nonce, nil, payload); err != nil {
			t.Fatal(err)
		}
		if err := ses[0].Close(); err != nil {
			t.Fatal(err)
		}
		if round == 100 {
			if moved = cl.Rebalance().Moved; moved > 0 {
				if _, err := ses[1].Encrypt(nonce, nil, payload); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := keys(), 3; got[0]+got[1]-start[0]-start[1] != want {
				t.Fatalf("3 sessions open: Key Memories hold %v (started at %v)", got, start)
			}
		}
		for _, s := range ses[1:] {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if moved == 0 {
		t.Fatal("Rebalance moved nothing: the re-home path was not exercised")
	}
	if got := keys(); !reflect.DeepEqual(got, start) {
		t.Fatalf("Key Memory sizes after 1000 open/close = %v, want %v", got, start)
	}
}

// TestWorkloadDeterminism is the acceptance gate: per-shard results must
// be byte-for-byte identical across runs — virtual cycles, packet counts
// and the FNV digest of every output byte, per shard.
func TestWorkloadDeterminism(t *testing.T) {
	run := func() WorkloadResult {
		res, err := RunWorkload(WorkloadConfig{
			Shards: 4, Router: RouterLeastLoaded, QueueRequests: true,
			Packets: 64, Sessions: 8, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.ShardDigests, b.ShardDigests) {
		t.Fatalf("per-shard output digests differ across runs:\n%v\n%v", a.ShardDigests, b.ShardDigests)
	}
	for i := range a.Metrics.Shards {
		sa, sb := a.Metrics.Shards[i], b.Metrics.Shards[i]
		if sa.Cycles != sb.Cycles || sa.Packets != sb.Packets || sa.Bytes != sb.Bytes {
			t.Fatalf("shard %d diverged: %+v vs %+v", i, sa, sb)
		}
	}
	if a.Errors != 0 || b.Errors != 0 {
		t.Fatalf("workload errors: %d/%d", a.Errors, b.Errors)
	}
}

// TestScalingOneToFour is the throughput acceptance criterion: aggregate
// simulated throughput on the mixed trafficgen workload must scale at
// least 3x from 1 shard to 4 shards.
func TestScalingOneToFour(t *testing.T) {
	mbps := func(shards int) float64 {
		res, err := RunWorkload(WorkloadConfig{
			Shards: shards, Router: RouterLeastLoaded, QueueRequests: true,
			Packets: 256, Sessions: 16, Seed: 1, BatchWindow: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.AggregateSimMbps
	}
	one, four := mbps(1), mbps(4)
	speedup := four / one
	t.Logf("1 shard: %.0f Mbps, 4 shards: %.0f Mbps (%.2fx)", one, four, speedup)
	if speedup < 3.0 {
		t.Fatalf("scaling 1->4 shards = %.2fx, want >= 3x", speedup)
	}
}

// TestWorkloadRejectsWithoutQueueing: with the QoS extension off and the
// in-flight window deliberately oversubscribing the cores, saturation
// draws the paper's error flag and the metrics count it. (The default
// window equals the core count when queueing is off, so rejects are
// opt-in — see TestWorkloadNoRejectsAtDefaultWindow.)
func TestWorkloadRejectsWithoutQueueing(t *testing.T) {
	res, err := RunWorkload(WorkloadConfig{
		Shards: 1, Router: RouterLeastLoaded, QueueRequests: false,
		Packets: 48, Sessions: 6, Seed: 2, BatchWindow: 48, ShardWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || res.Metrics.Rejected == 0 {
		t.Fatalf("expected error-flag rejects at saturation: errors=%d rejected=%d",
			res.Errors, res.Metrics.Rejected)
	}
	if res.Metrics.Rejected != uint64(res.Errors) {
		t.Fatalf("rejects %d != errors %d", res.Metrics.Rejected, res.Errors)
	}
}

// TestWorkloadNoRejectsAtDefaultWindow: with queueing off, the default
// in-flight window (== core count) must pipeline a large batch without
// ever drawing the error flag — batching alone should not reject.
func TestWorkloadNoRejectsAtDefaultWindow(t *testing.T) {
	res, err := RunWorkload(WorkloadConfig{
		Shards: 1, Router: RouterLeastLoaded, QueueRequests: false,
		Packets: 48, Sessions: 6, Seed: 2, BatchWindow: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Metrics.Rejected != 0 {
		t.Fatalf("default window rejected packets: errors=%d rejected=%d",
			res.Errors, res.Metrics.Rejected)
	}
	if res.Metrics.Packets != 48 {
		t.Fatalf("completed %d/48", res.Metrics.Packets)
	}
}

// TestReconfigureRefusesToStrandSessions: converting the cluster's last
// Whirlpool core back to AES while a hash session is open must fail
// up-front, not deadlock the session's next packet.
func TestReconfigureRefusesToStrandSessions(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterFamilyAffinity, QueueRequests: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Reconfigure(1, 0, reconfig.EngineWhirlpool, reconfig.StagingRAM); err != nil {
		t.Fatal(err)
	}
	hs, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyHash}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Reconfigure(1, 0, reconfig.EngineAES, reconfig.StagingRAM); err == nil {
		t.Fatal("reconfiguration stranded an open hash session")
	}
	// The session is still serviceable after the refused swap.
	if _, err := hs.Sum([]byte("still homed")); err != nil {
		t.Fatal(err)
	}
	// After closing the hash session the swap back is allowed.
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Reconfigure(1, 0, reconfig.EngineAES, reconfig.StagingRAM); err != nil {
		t.Fatalf("swap back after close: %v", err)
	}
}

// TestSessionDoubleClose: the second Close errors without corrupting the
// per-shard session counters routing depends on.
func TestSessionDoubleClose(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ses, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err == nil {
		t.Fatal("second Close succeeded")
	}
	if got := cl.shardSessions[ses.Shard()].Load(); got != 0 {
		t.Fatalf("session counter corrupted: %d", got)
	}
}

// TestMetricsCountDeliveredBytes: rejected packets must not inflate the
// throughput figures (Bytes/SimMbps), only OfferedBytes.
func TestMetricsCountDeliveredBytes(t *testing.T) {
	res, err := RunWorkload(WorkloadConfig{
		Shards: 1, Router: RouterLeastLoaded, QueueRequests: false,
		Packets: 48, Sessions: 6, Seed: 2, BatchWindow: 48, ShardWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if res.Errors == 0 {
		t.Fatal("workload did not saturate")
	}
	if m.Bytes >= m.OfferedBytes {
		t.Fatalf("delivered bytes %d not below offered %d despite %d rejects",
			m.Bytes, m.OfferedBytes, res.Errors)
	}
	if m.Bytes == 0 {
		t.Fatal("no delivered bytes counted")
	}
}

// TestUnknownNames: constructor-level validation for router and policy.
func TestUnknownNames(t *testing.T) {
	if _, err := New(Config{Router: "bogus"}); err == nil {
		t.Fatal("unknown router accepted")
	}
	if _, err := New(Config{Policy: "bogus"}); err == nil {
		t.Fatal("unknown shard policy accepted")
	}
	if _, err := RouterByName("nope"); err == nil {
		t.Fatal("RouterByName accepted junk")
	}
}

// TestMixedStandardsLookup covers the trafficgen name helpers the CLI
// uses.
func TestMixedStandardsLookup(t *testing.T) {
	stds, err := trafficgen.StandardsByName([]string{"umts-voice", "wimax-gcm"})
	if err != nil || len(stds) != 2 {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := trafficgen.StandardsByName([]string{"lte-nope"}); err == nil {
		t.Fatal("unknown standard accepted")
	}
}

// TestRebalanceVoiceFirst: re-homing is class-prioritized — when a voice
// and a background session both need to move, the voice session is routed
// (and its migration traffic enqueued) first, so it claims the best
// placement.
func TestRebalanceVoiceFirst(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterLeastLoaded, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	open := func(prio, weight int) *Session {
		suite := core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16, Priority: prio}
		ses, err := cl.Open(OpenSpec{Suite: suite, KeyLen: 16, Weight: weight})
		if err != nil {
			t.Fatal(err)
		}
		return ses
	}
	heavy := open(0, 8) // -> shard 0
	voice := open(3, 1) // -> shard 1
	bg := open(0, 1)    // -> shard 1
	bg2 := open(0, 1)   // -> shard 1
	if heavy.Shard() != 0 || voice.Shard() != 1 || bg.Shard() != 1 || bg2.Shard() != 1 {
		t.Fatalf("unexpected placement: %d/%d/%d/%d", heavy.Shard(), voice.Shard(), bg.Shard(), bg2.Shard())
	}
	if err := heavy.Close(); err != nil {
		t.Fatal(err)
	}
	// Shard 0 is empty: the voice session must be re-homed before any
	// background session gets to pick.
	moved := cl.Rebalance().Moved
	if moved != 2 {
		t.Fatalf("rebalance moved %d sessions, want 2 (order %v)", moved, cl.LastMoves())
	}
	wantOrder := []int{voice.ID(), bg.ID()}
	if !reflect.DeepEqual(cl.LastMoves(), wantOrder) {
		t.Fatalf("move order %v, want voice first %v", cl.LastMoves(), wantOrder)
	}
	if voice.Shard() != 0 {
		t.Fatalf("voice session re-homed to shard %d, want the freed shard 0", voice.Shard())
	}
}

// TestShapedPassThroughIsInvisible: a pass-through per-shard shaper (zero
// qos.Config) must not change a single virtual-time result — it only adds
// per-class attribution.
func TestShapedPassThroughIsInvisible(t *testing.T) {
	base := WorkloadConfig{
		Shards: 4, Router: RouterLeastLoaded, QueueRequests: true,
		Packets: 96, Sessions: 8, Seed: 3, Mix: trafficgen.QoSMix,
	}
	plain, err := RunWorkload(base)
	if err != nil {
		t.Fatal(err)
	}
	shaped := base
	shaped.Shape = true
	got, err := RunWorkload(shaped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.ShardDigests, got.ShardDigests) {
		t.Fatalf("digests diverged under pass-through shaping:\n%v\n%v", plain.ShardDigests, got.ShardDigests)
	}
	for i := range plain.Metrics.Shards {
		a, b := plain.Metrics.Shards[i], got.Metrics.Shards[i]
		if a.Cycles != b.Cycles || a.Packets != b.Packets || a.Bytes != b.Bytes {
			t.Fatalf("shard %d virtual results diverged: %+v vs %+v", i, a, b)
		}
	}
	// ...and the shaped run attributes every class.
	if got.Metrics.Classes == nil {
		t.Fatal("shaped run reported no per-class metrics")
	}
	var submitted uint64
	for _, cs := range got.Metrics.Classes {
		submitted += cs.Submitted
	}
	if submitted != uint64(base.Packets) {
		t.Fatalf("class-attributed %d packets, want %d", submitted, base.Packets)
	}
}

// openLoopProfiles is a compact all-class mix for the open-loop tests.
func openLoopProfiles() []arrivals.ClassProfile {
	return []arrivals.ClassProfile{
		{Class: qos.Voice, Share: 0.10, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
		{Class: qos.Video, Share: 0.15, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
		{Class: qos.Data, Share: 0.15, Bytes: 512, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
		{Class: qos.Background, Share: 0.60, Bytes: 2048, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	}
}

// TestOpenLoopDeterminism: two open-loop runs with the same seed are
// bit-identical — arrival digests, verdict counts, percentiles, shard
// cycles, everything.
func TestOpenLoopDeterminism(t *testing.T) {
	run := func() OpenLoopResult {
		res, err := RunOpenLoop(OpenLoopConfig{
			Shards: 2, Policy: "qos-priority", Offered: 0.6,
			SatMbpsPerShard: 1500, Horizon: 600000, Seed: 21,
			Profiles: openLoopProfiles(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("open-loop run not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Errors != 0 {
		t.Fatalf("unexpected hard errors: %d", a.Errors)
	}
}

// TestOpenLoopAttribution: every shard attributes every class, the
// aggregate adds up, and cross-shard latency percentiles are readable.
func TestOpenLoopAttribution(t *testing.T) {
	res, err := RunOpenLoop(OpenLoopConfig{
		Shards: 2, Policy: "qos-priority", Offered: 0.5,
		SatMbpsPerShard: 1500, Horizon: 600000, Seed: 4,
		Profiles: openLoopProfiles(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerShard) != 2 || len(res.Classes) != qos.NumClasses {
		t.Fatalf("shape: %d shards, %d classes", len(res.PerShard), len(res.Classes))
	}
	var total uint64
	for s, stats := range res.PerShard {
		for _, cs := range stats {
			if cs.Submitted == 0 {
				t.Errorf("shard %d class %v saw no arrivals", s, cs.Class)
			}
			total += cs.Submitted
		}
	}
	var agg uint64
	for _, c := range res.Classes {
		agg += c.Submitted
		if c.Submitted > 0 && c.Completed > 0 && c.P99 == 0 {
			t.Errorf("class %v: completions without latency percentiles", c.Class)
		}
		if c.OfferedMbps <= 0 {
			t.Errorf("class %v: no offered rate", c.Class)
		}
	}
	if agg != total {
		t.Fatalf("aggregate submitted %d != per-shard sum %d", agg, total)
	}
	for s, d := range res.ArrivalDigests {
		if d == 0 {
			t.Errorf("shard %d has no arrival digest", s)
		}
	}
}
