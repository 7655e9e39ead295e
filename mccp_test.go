package mccp_test

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"errors"
	"testing"

	"mccp"
	"mccp/internal/whirlpool"
)

// newPlatform builds a single-device platform or fails the test.
func newPlatform(t *testing.T, opts ...mccp.Option) *mccp.Platform {
	t.Helper()
	p, err := mccp.NewPlatform(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublicAPIQuickstart(t *testing.T) {
	p := newPlatform(t)
	key, err := p.NewKey(16)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	payload := []byte("hello, software-defined radio")
	sealed, err := ch.Encrypt(nonce, []byte("hdr"), payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != len(payload)+16 {
		t.Fatalf("sealed length %d", len(sealed))
	}
	plain, err := ch.Decrypt(nonce, []byte("hdr"), sealed[:len(payload)], sealed[len(payload):])
	if err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("roundtrip: %v", err)
	}
	// Tamper -> ErrAuth.
	bad := append([]byte(nil), sealed...)
	bad[0] ^= 1
	if _, err := ch.Decrypt(nonce, []byte("hdr"), bad[:len(payload)], bad[len(payload):]); err != mccp.ErrAuth {
		t.Fatalf("tamper err = %v", err)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Packets < 2 {
		t.Error("stats did not count packets")
	}
	if p.Cycles() == 0 || p.Elapsed() <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	for _, pol := range []mccp.Policy{mccp.PolicyFirstIdle, mccp.PolicyRoundRobin, mccp.PolicyKeyAffinity} {
		p := newPlatform(t, mccp.WithPolicy(pol), mccp.WithQueueing(0))
		key, _ := p.NewKey(32)
		ch, err := p.Open(mccp.Suite{Family: mccp.CCM, TagLen: 8, SplitCCM: true}, key)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		nonce := make([]byte, 13)
		sealed, err := ch.Encrypt(nonce, nil, make([]byte, 300))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if _, err := ch.Decrypt(nonce, nil, sealed[:300], sealed[300:]); err != nil {
			t.Fatalf("%s decrypt: %v", pol, err)
		}
	}
}

func TestPublicAPIAsyncPipeline(t *testing.T) {
	p := newPlatform(t, mccp.WithQueueing(0))
	key, _ := p.NewKey(16)
	ch, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	keyBytesCheck, _ := stdaes.NewCipher(make([]byte, 16))
	_ = keyBytesCheck
	done := 0
	for i := 0; i < 8; i++ {
		ch.EncryptAsync(nonce, nil, make([]byte, 512), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("async packet: %v", err)
			}
			done++
		})
	}
	p.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
}

func TestPublicAPIReconfigureAndHash(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.Reconfigure(2, mccp.EngineWhirlpool, mccp.FromRAM); err != nil {
		t.Fatal(err)
	}
	ch, err := p.Open(mccp.Suite{Family: mccp.Hash}, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("bitstream-swapped hashing service")
	digest, err := ch.Sum(msg)
	if err != nil {
		t.Fatal(err)
	}
	want := whirlpool.Sum(msg)
	if !bytes.Equal(digest, want[:]) {
		t.Fatalf("digest mismatch")
	}
}

// saturate fires more async packets than the device has cores and returns
// the outcome counts.
func saturate(t *testing.T, policy mccp.Policy, queue bool) (ok, rejected int, stats mccp.Stats) {
	t.Helper()
	opts := []mccp.Option{mccp.WithPolicy(policy)}
	if queue {
		opts = append(opts, mccp.WithQueueing(0))
	}
	p := newPlatform(t, opts...)
	key, err := p.NewKey(16)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	const packets = 12 // 3x the core count: guaranteed saturation
	for i := 0; i < packets; i++ {
		ch.EncryptAsync(nonce, nil, make([]byte, 256), func(_ []byte, err error) {
			switch err {
			case nil:
				ok++
			case mccp.ErrNoResources:
				rejected++
			default:
				t.Errorf("%s queue=%v: %v", policy, queue, err)
			}
		})
	}
	p.Run()
	if ok+rejected != packets {
		t.Fatalf("%s queue=%v: %d outcomes for %d packets", policy, queue, ok+rejected, packets)
	}
	return ok, rejected, p.Stats()
}

// TestSchedulerPoliciesUnderSaturation exercises round-robin and
// key-affinity end-to-end at saturation, with the QoS queueing extension
// on and off — asserting the paper's error-flag behaviour (Rejected) and
// the §VIII queueing counters (Queued) through the public API.
func TestSchedulerPoliciesUnderSaturation(t *testing.T) {
	for _, policy := range []mccp.Policy{mccp.PolicyRoundRobin, mccp.PolicyKeyAffinity} {
		t.Run(string(policy)+"/queue=off", func(t *testing.T) {
			ok, rejected, stats := saturate(t, policy, false)
			if rejected == 0 || stats.Rejected == 0 {
				t.Fatalf("no error-flag rejects at saturation (ok=%d rej=%d stats=%+v)", ok, rejected, stats)
			}
			if uint64(rejected) != stats.Rejected {
				t.Fatalf("callback rejects %d != Stats.Rejected %d", rejected, stats.Rejected)
			}
			if stats.Queued != 0 {
				t.Fatalf("Queued=%d with queueing disabled", stats.Queued)
			}
		})
		t.Run(string(policy)+"/queue=on", func(t *testing.T) {
			ok, rejected, stats := saturate(t, policy, true)
			if rejected != 0 || stats.Rejected != 0 {
				t.Fatalf("rejects with queueing enabled (rej=%d stats=%+v)", rejected, stats)
			}
			if ok != 12 {
				t.Fatalf("only %d/12 packets completed", ok)
			}
			if stats.Queued == 0 {
				t.Fatal("saturating load never used the QoS queue")
			}
		})
	}
}

// TestPublicAPICluster smoke-tests the sharded service layer through the
// public facade.
func TestPublicAPICluster(t *testing.T) {
	cl, err := mccp.NewCluster(mccp.ClusterConfig{Shards: 2, Router: mccp.RouterLeastLoaded, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a, err := cl.Open(mccp.ClusterOpenSpec{Suite: mccp.Suite{Family: mccp.GCM, TagLen: 16}, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Open(mccp.ClusterOpenSpec{Suite: mccp.Suite{Family: mccp.CCM, TagLen: 8}, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if a.Shard() == b.Shard() {
		t.Fatalf("least-loaded left both sessions on shard %d", a.Shard())
	}
	nonce12, nonce13 := make([]byte, 12), make([]byte, 13)
	payload := []byte("served by the shard layer")
	s1, err := a.Encrypt(nonce12, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Encrypt(nonce13, nil, payload); err != nil {
		t.Fatal(err)
	}
	plain, err := a.Decrypt(nonce12, nil, s1[:len(payload)], s1[len(payload):])
	if err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("cluster roundtrip: %v", err)
	}
	m := cl.Metrics()
	if m.Packets != 3 || len(m.Shards) != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if _, err := mccp.NewCluster(mccp.ClusterConfig{Router: "nope"}); err == nil {
		t.Fatal("NewCluster accepted an unknown router")
	}
}

// TestPublicAPIMatchesStdlibGCM pins the facade against crypto/cipher.
func TestPublicAPIMatchesStdlibGCM(t *testing.T) {
	p := newPlatform(t, mccp.WithSeed(42))
	keyID, err := p.NewKey(16)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the generated key via a second deterministic controller run.
	p2 := newPlatform(t, mccp.WithSeed(42))
	_, key2, _ := p2.MC.ProvisionKey(16)

	ch, _ := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, keyID)
	nonce := []byte("abcdefghijkl")
	pt := []byte("cross-checking the whole stack against the standard library")
	sealed, err := ch.Encrypt(nonce, nil, pt)
	if err != nil {
		t.Fatal(err)
	}
	blk, _ := stdaes.NewCipher(key2)
	ref, _ := cipher.NewGCM(blk)
	if want := ref.Seal(nil, nonce, pt, nil); !bytes.Equal(sealed, want) {
		t.Fatalf("facade output != stdlib GCM")
	}
}

// TestPublicAPIQoS drives the full QoS stack through the public surface:
// a qos-priority platform, per-channel class tags, the shaper front end
// with a bounded background queue, and the three-way saturation counters.
func TestPublicAPIQoS(t *testing.T) {
	p := newPlatform(t, mccp.WithPolicy(mccp.PolicyQoSPriority), mccp.WithQueueing(0))
	voiceKey, _ := p.NewKey(16)
	bulkKey, _ := p.NewKey(16)
	voice, err := p.Open(mccp.Suite{Family: mccp.CCM, TagLen: 8, Priority: mccp.QoSVoice.Priority()}, voiceKey)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16, Priority: mccp.QoSBackground.Priority()}, bulkKey)
	if err != nil {
		t.Fatal(err)
	}

	shaper := p.NewShaper(mccp.ShaperConfig{
		Capacity:   4,
		QueueDepth: 4,
		Drain:      mccp.QoSDrainWeightedFair,
	})
	voiceNonce := make([]byte, 13)
	bulkNonce := make([]byte, 12)
	voiceDone, bulkDone, shed := 0, 0, 0
	for i := 0; i < 6; i++ {
		shaper.Encrypt(mccp.QoSVoice, voice.ID(), voiceNonce, nil, make([]byte, 128),
			func(_ []byte, err error) {
				if err != nil {
					t.Errorf("voice: %v", err)
				}
				voiceDone++
			})
	}
	for i := 0; i < 8; i++ {
		shaper.Encrypt(mccp.QoSBackground, bulk.ID(), bulkNonce, nil, make([]byte, 1024),
			func(_ []byte, err error) {
				switch err {
				case nil:
					bulkDone++
				case mccp.ErrShed:
					shed++
				default:
					t.Errorf("bulk: %v", err)
				}
			})
	}
	p.Run()
	if voiceDone != 6 {
		t.Fatalf("voice completed %d/6", voiceDone)
	}
	if shed == 0 || bulkDone == 0 {
		t.Fatalf("bounded bulk queue: done=%d shed=%d, want both nonzero", bulkDone, shed)
	}
	vs := shaper.Stats(mccp.QoSVoice)
	if vs.Completed != 6 || shaper.LatencyPercentile(mccp.QoSVoice, 99) == 0 {
		t.Fatalf("voice shaper stats: %+v", vs)
	}
	if bs := shaper.Stats(mccp.QoSBackground); bs.Shed != uint64(shed) {
		t.Fatalf("shed counter %d != callbacks %d", bs.Shed, shed)
	}
}

// TestPublicAPIBoundedDeviceQueue covers Config.MaxQueue end-to-end: the
// device queues up to the bound, sheds the rest with ErrQueueFull, and
// Stats separates the outcomes.
func TestPublicAPIBoundedDeviceQueue(t *testing.T) {
	p := newPlatform(t, mccp.WithQueueing(2))
	key, _ := p.NewKey(16)
	ch, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	ok, shed := 0, 0
	for i := 0; i < 12; i++ {
		ch.EncryptAsync(nonce, nil, make([]byte, 256), func(_ []byte, err error) {
			switch err {
			case nil:
				ok++
			case mccp.ErrQueueFull:
				shed++
			default:
				t.Errorf("packet: %v", err)
			}
		})
	}
	p.Run()
	stats := p.Stats()
	if shed == 0 || uint64(shed) != stats.Shed {
		t.Fatalf("shed=%d stats=%+v", shed, stats)
	}
	if stats.Rejected != 0 {
		t.Fatalf("Rejected=%d with queueing on", stats.Rejected)
	}
	if ok+shed != 12 {
		t.Fatalf("outcomes %d+%d != 12", ok, shed)
	}
}

// TestNewPlatformOptions covers the validating functional-options
// constructor: options resolve, unknown policies error, and fleet-scope
// options are rejected at platform scope.
func TestNewPlatformOptions(t *testing.T) {
	p, err := mccp.NewPlatform(
		mccp.WithPolicy(mccp.PolicyQoSPriority),
		mccp.WithQueueing(0),
		mccp.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := p.NewKey(16)
	ch, err := p.Open(mccp.Suite{Family: mccp.GCM, TagLen: 16}, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Encrypt(make([]byte, 12), nil, []byte("options")); err != nil {
		t.Fatal(err)
	}
	if _, err := mccp.NewPlatform(mccp.WithPolicy("best-effort")); err == nil {
		t.Fatal("NewPlatform accepted an unknown policy")
	}
	if _, err := mccp.NewPlatform(mccp.WithShards(2)); err == nil {
		t.Fatal("NewPlatform accepted a fleet-scope option")
	}
}

// TestNewFleetElasticOps drives the fleet control plane through the
// public facade: scale-in/out and a single-shard algorithm swap.
func TestNewFleetElasticOps(t *testing.T) {
	f, err := mccp.NewFleet(
		mccp.WithShards(2),
		mccp.WithRouter(mccp.RouterLeastLoaded),
		mccp.WithQueueing(0),
		mccp.WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Cluster().Close()
	if f.Active() != 2 {
		t.Fatalf("active = %d", f.Active())
	}
	ses, err := f.Cluster().Open(mccp.ClusterOpenSpec{
		Suite: mccp.Suite{Family: mccp.GCM, TagLen: 16}, KeyLen: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Scale(1); err != nil || f.Active() != 1 {
		t.Fatalf("scale-in: %v, active %d", err, f.Active())
	}
	if _, err := f.Scale(2); err != nil || f.Active() != 2 {
		t.Fatalf("scale-out: %v, active %d", err, f.Active())
	}
	took, _, err := f.Reconfigure(0, 0, mccp.EngineWhirlpool, mccp.FromICAP)
	if err != nil || took == 0 {
		t.Fatalf("swap: %v took %d", err, took)
	}
	if _, err := ses.Encrypt(make([]byte, 12), nil, []byte("post-swap")); err != nil {
		t.Fatal(err)
	}
	if _, err := mccp.NewFleet(mccp.WithPolicy("best-effort")); err == nil {
		t.Fatal("NewFleet accepted an unknown policy")
	}
}

// TestVerdictClassification pins the single error-to-verdict table and
// its errors.Is round trip through the canonical sentinels.
func TestVerdictClassification(t *testing.T) {
	cases := map[mccp.Verdict]error{
		mccp.VerdictOK:       nil,
		mccp.VerdictRejected: mccp.ErrNoResources,
		mccp.VerdictShed:     mccp.ErrShed,
		mccp.VerdictExpired:  mccp.ErrExpired,
		mccp.VerdictAged:     mccp.ErrAged,
		mccp.VerdictAuthFail: mccp.ErrAuth,
	}
	for v, sentinel := range cases {
		if got := mccp.VerdictFor(sentinel); got != v {
			t.Errorf("VerdictFor(%v) = %v, want %v", sentinel, got, v)
		}
		if !errors.Is(v.Err(), sentinel) && !(v == mccp.VerdictOK && v.Err() == nil) {
			t.Errorf("verdict %v round trip lost the sentinel", v)
		}
	}
	if mccp.VerdictFor(mccp.ErrQueueFull) != mccp.VerdictShed {
		t.Error("bounded-queue overflow must classify as shed")
	}
	if mccp.VerdictFor(errors.New("boom")) != mccp.VerdictFailed {
		t.Error("unknown errors must classify as failed")
	}
	if _, err := mccp.ParsePolicy("qos-priority"); err != nil {
		t.Errorf("ParsePolicy rejected a valid name: %v", err)
	}
	if _, err := mccp.ParsePolicy("best-effort"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}
