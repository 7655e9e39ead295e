// Differential determinism tests: the simulation kernel's fast paths
// (PicoBlaze instruction batching, crossbar burst transfers, bulk FIFO
// moves, the windowed GHASH/AES functional models) must be invisible in
// virtual time. Every workload here runs twice on the fast kernel (run-to-
// run determinism) and once against the retained cycle-by-cycle reference
// path (sim.CompatDefault), asserting identical cycle counts, throughput
// figures and packet digests. These tests are the guard that keeps the
// fast path honest forever: any divergence — a reordered event, a word
// arriving a cycle early — shows up as a changed cycle count or digest.
package mccp_test

import (
	"reflect"
	"testing"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/harness"
	"mccp/internal/qos"
	"mccp/internal/reconfig"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// onReference runs fn with every engine created inside forced onto the
// cycle-by-cycle reference path.
func onReference(fn func()) {
	sim.CompatDefault = true
	defer func() { sim.CompatDefault = false }()
	fn()
}

func TestFastPathTableIIIdentical(t *testing.T) {
	cells := []struct {
		name string
		fam  cryptocore.Family
		m    harness.Mapping
		kb   int
	}{
		{"GCM/1core/128", cryptocore.FamilyGCM, harness.GCM1, 16},
		{"GCM/4x1/128", cryptocore.FamilyGCM, harness.GCM4x1, 16},
		{"GCM/1core/256", cryptocore.FamilyGCM, harness.GCM1, 32},
		{"CCM/1core/128", cryptocore.FamilyCCM, harness.CCM1, 16},
		{"CCM/2core/128", cryptocore.FamilyCCM, harness.CCM2, 16},
		{"CCM/2x2/128", cryptocore.FamilyCCM, harness.CCM2x2, 16},
	}
	for _, c := range cells {
		total := 4 * c.m.Streams
		fast1 := harness.MeasureThroughput(c.fam, c.m, c.kb, harness.PacketBytes, total)
		fast2 := harness.MeasureThroughput(c.fam, c.m, c.kb, harness.PacketBytes, total)
		if fast1 != fast2 {
			t.Errorf("%s: fast path not deterministic: %v vs %v", c.name, fast1, fast2)
		}
		var ref float64
		onReference(func() {
			ref = harness.MeasureThroughput(c.fam, c.m, c.kb, harness.PacketBytes, total)
		})
		if fast1 != ref {
			t.Errorf("%s: fast path %v Mbps != reference %v Mbps", c.name, fast1, ref)
		}
	}
}

func TestFastPathLoopTimesIdentical(t *testing.T) {
	rows := 0
	for _, exp := range harness.Experiments {
		if exp.ID != "E1" {
			continue
		}
		for _, p := range exp.Points {
			rows++
			fast := p.Run()
			var ref []harness.Metric
			onReference(func() { ref = p.Run() })
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("%s: fast %v != reference %v", p.Name, fast, ref)
			}
		}
	}
	if rows != 9 {
		t.Fatalf("%d E1 loop rows, want 9", rows)
	}
}

func clusterRun(t *testing.T) cluster.WorkloadResult {
	t.Helper()
	res, err := cluster.RunWorkload(cluster.WorkloadConfig{
		Shards:        4,
		Router:        cluster.RouterLeastLoaded,
		QueueRequests: true,
		Packets:       64,
		Sessions:      16,
		Seed:          1,
		BatchWindow:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFastPathClusterIdentical(t *testing.T) {
	fast1 := clusterRun(t)
	fast2 := clusterRun(t)
	var ref cluster.WorkloadResult
	onReference(func() { ref = clusterRun(t) })

	check := func(label string, other cluster.WorkloadResult) {
		if fast1.Metrics.ClusterCycles != other.Metrics.ClusterCycles {
			t.Errorf("%s: cluster cycles %d != %d", label,
				fast1.Metrics.ClusterCycles, other.Metrics.ClusterCycles)
		}
		if fast1.Metrics.Packets != other.Metrics.Packets || fast1.Metrics.Bytes != other.Metrics.Bytes {
			t.Errorf("%s: packets/bytes %d/%d != %d/%d", label,
				fast1.Metrics.Packets, fast1.Metrics.Bytes, other.Metrics.Packets, other.Metrics.Bytes)
		}
		for i := range fast1.ShardDigests {
			if fast1.ShardDigests[i] != other.ShardDigests[i] {
				t.Errorf("%s: shard %d digest %#x != %#x", label, i,
					fast1.ShardDigests[i], other.ShardDigests[i])
			}
		}
		for i := range fast1.Metrics.Shards {
			a, b := fast1.Metrics.Shards[i], other.Metrics.Shards[i]
			if a.Cycles != b.Cycles || a.CrossbarBusy != b.CrossbarBusy || a.Queued != b.Queued {
				t.Errorf("%s: shard %d (cycles %d, xbar %d, queued %d) != (cycles %d, xbar %d, queued %d)",
					label, i, a.Cycles, a.CrossbarBusy, a.Queued, b.Cycles, b.CrossbarBusy, b.Queued)
			}
		}
	}
	check("fast run-to-run", fast2)
	check("fast vs reference", ref)
}

func TestFastPathQoSIdentical(t *testing.T) {
	for _, pol := range []string{"first-idle", "qos-priority"} {
		fast := harness.QoSOverloadRun(pol, 8)
		var ref harness.QoSScenario
		onReference(func() { ref = harness.QoSOverloadRun(pol, 8) })
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: fast overload %+v != reference %+v", pol, fast, ref)
		}
	}
	for _, drain := range qos.DrainNames() {
		fast := harness.QoSDrainRun(drain, 8)
		var ref harness.QoSDrainRow
		onReference(func() { ref = harness.QoSDrainRun(drain, 8) })
		if fast != ref {
			t.Errorf("drain %s: fast %+v != reference %+v", drain, fast, ref)
		}
	}
}

// TestFastPathArrivalsIdentical: the open-loop workload engine (E13) is a
// pure function of its seed — arrival times (witnessed by the digest),
// verdict counts and latency percentiles are bit-identical across two
// fast-kernel runs and against the cycle-by-cycle reference path.
func TestFastPathArrivalsIdentical(t *testing.T) {
	cfg := harness.LoadCurveConfig{BackgroundPackets: 100}
	point := func() harness.LoadPoint {
		return harness.LoadPointRun("qos-priority", 1.25, 1400, cfg)
	}
	fast1, fast2 := point(), point()
	if !reflect.DeepEqual(fast1, fast2) {
		t.Fatalf("open-loop point not deterministic run-to-run:\n%+v\n%+v", fast1, fast2)
	}
	var ref harness.LoadPoint
	onReference(func() { ref = point() })
	if fast1.ArrivalDigest != ref.ArrivalDigest {
		t.Errorf("arrival digest %#x != reference %#x", fast1.ArrivalDigest, ref.ArrivalDigest)
	}
	if !reflect.DeepEqual(fast1, ref) {
		t.Errorf("fast open-loop point != reference:\n%+v\n%+v", fast1, ref)
	}
}

// TestTraceDeterministic: the E18 traced measurement — the open-loop
// point with the lifecycle tracer at sample rate 1, reduced to per-class
// stage decompositions and a span-stream digest — is bit-identical
// across two fast-kernel runs and against the cycle-by-cycle reference
// path, and attaching the tracer leaves the untraced E13 point
// untouched: the tracer only reads the clock, it never schedules.
func TestTraceDeterministic(t *testing.T) {
	cfg := harness.LoadCurveConfig{BackgroundPackets: 100}
	point := func() harness.StagePoint {
		return harness.StagePointRun("qos-priority", 1.25, 1400, cfg)
	}
	fast1, fast2 := point(), point()
	if fast1.TraceDigest != fast2.TraceDigest {
		t.Errorf("span digest %#x != %#x run-to-run", fast1.TraceDigest, fast2.TraceDigest)
	}
	if !reflect.DeepEqual(fast1, fast2) {
		t.Fatalf("traced point not deterministic run-to-run:\n%+v\n%+v", fast1, fast2)
	}
	var ref harness.StagePoint
	onReference(func() { ref = point() })
	if fast1.TraceDigest != ref.TraceDigest {
		t.Errorf("span digest %#x != reference %#x", fast1.TraceDigest, ref.TraceDigest)
	}
	if !reflect.DeepEqual(fast1, ref) {
		t.Errorf("fast traced point != reference:\n%+v\n%+v", fast1, ref)
	}

	// Reconciliation with E13: tracing must be invisible in the
	// measurement, and the span-derived percentiles equal the
	// shaper-derived ones exactly.
	untraced := harness.LoadPointRun("qos-priority", 1.25, 1400, cfg)
	if !reflect.DeepEqual(fast1.LoadPoint, untraced) {
		t.Errorf("traced LoadPoint != untraced:\n%+v\n%+v", fast1.LoadPoint, untraced)
	}
	if fast1.Spans == 0 || len(fast1.Cells) == 0 {
		t.Fatalf("no spans decomposed: %+v", fast1)
	}
	for _, sc := range fast1.Cells {
		cell := qos.CellOf(fast1.Classes, sc.Class)
		if sc.TotalP50 != cell.P50 || sc.TotalP99 != cell.P99 {
			t.Errorf("%v: traced percentiles (%d, %d) != E13 cell (%d, %d)",
				sc.Class, sc.TotalP50, sc.TotalP99, cell.P50, cell.P99)
		}
		var sum sim.Time
		for _, d := range sc.SumStages {
			sum += d
		}
		if sum != sc.SumTotal {
			t.Errorf("%v: stage sums %d do not tile total %d", sc.Class, sum, sc.SumTotal)
		}
	}
}

// wireGuardSessions is the session mix for the batch-boundary guard:
// CCM voice and GCM background alternating, no deadlines, so every
// packet succeeds and the output bytes are pure crypto results.
var wireGuardSessions = []struct {
	family  cryptocore.Family
	tagLen  int
	class   qos.Class
	payload int
}{
	{cryptocore.FamilyCCM, 8, qos.Voice, 256},
	{cryptocore.FamilyGCM, 16, qos.Background, 512},
	{cryptocore.FamilyGCM, 16, qos.Background, 2048},
	{cryptocore.FamilyCCM, 8, qos.Voice, 256},
	{cryptocore.FamilyGCM, 16, qos.Data, 1024},
	{cryptocore.FamilyGCM, 12, qos.Video, 512},
}

const wireGuardPackets = 60

// wireGuardCluster is the backend both sides of the guard run on. The
// server overlays its own BatchWindow, which is the point: batch
// chunking must be invisible in the output bytes.
func wireGuardCluster() cluster.Config {
	return cluster.Config{
		Shards:        2,
		Router:        cluster.RouterLeastLoaded,
		QueueRequests: true,
		Seed:          7,
	}
}

// wireGuardPacket returns packet seq's session index, stamped nonce and
// payload — shared by the in-process and wire replays.
func wireGuardPacket(seq int) (sess int, nonce, payload []byte) {
	sess = seq % len(wireGuardSessions)
	s := wireGuardSessions[sess]
	n := 12
	if s.family == cryptocore.FamilyCCM {
		n = 13
	}
	base := make([]byte, n)
	base[0] = byte(sess)
	payload = make([]byte, s.payload)
	for j := range payload {
		payload[j] = byte(sess*31 + j)
	}
	return sess, arrivals.StampNonce(base, seq), payload
}

// wireGuardInProcess replays the guard workload straight into a cluster
// with the library API and folds per-shard digests exactly the way the
// server's RETRIEVE_DATA report does: FNV-64a over output bytes in
// delivery (= enqueue) order.
func wireGuardInProcess(t *testing.T) []uint64 {
	t.Helper()
	cfg := wireGuardCluster()
	cfg.BatchWindow = 16
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	digests := make([]uint64, cl.Shards())
	for i := range digests {
		digests[i] = 0xcbf29ce484222325
	}
	sessions := make([]*cluster.Session, len(wireGuardSessions))
	for i, s := range wireGuardSessions {
		ses, err := cl.Open(cluster.OpenSpec{
			Suite:  core.Suite{Family: s.family, TagLen: s.tagLen, Priority: s.class.Priority()},
			KeyLen: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = ses
	}
	for seq := 0; seq < wireGuardPackets; seq++ {
		si, nonce, payload := wireGuardPacket(seq)
		ses := sessions[si]
		shard := ses.Shard()
		ses.EncryptWireAsync(nonce, nil, payload, 0, func(out []byte, _ sim.Time, err error) {
			if err != nil {
				t.Errorf("in-process packet %d: %v", seq, err)
				return
			}
			d := digests[shard]
			for _, by := range out {
				d = (d ^ uint64(by)) * 0x100000001b3
			}
			digests[shard] = d
		})
	}
	cl.Flush()
	return digests
}

// wireGuardServer replays the same workload through a loopback
// mccpserver — single connection, single-threaded client, the given
// batch size trigger and client FLUSH cadence — and returns the server's
// per-shard digests.
func wireGuardServer(t *testing.T, batchOps, flushEvery int) []uint64 {
	t.Helper()
	srv, err := server.New(server.Config{
		Cluster:  wireGuardCluster(),
		BatchOps: batchOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lb := server.NewLoopback()
	srv.Serve(lb)
	nc, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := server.NewClient(nc)
	defer c.Close()

	specs := make([]server.OpenRequest, len(wireGuardSessions))
	for i, s := range wireGuardSessions {
		specs[i] = server.OpenRequest{
			Family: s.family, KeyLen: 16, TagLen: s.tagLen, Class: s.class,
		}
	}
	ids, err := c.OpenMany(specs)
	if err != nil {
		t.Fatal(err)
	}
	expect := 0
	for seq := 0; seq < wireGuardPackets; seq++ {
		si, nonce, payload := wireGuardPacket(seq)
		if _, err := c.SendEncrypt(ids[si], nonce, nil, payload); err != nil {
			t.Fatal(err)
		}
		expect++
		if (seq+1)%flushEvery == 0 {
			if _, err := c.SendFlush(); err != nil {
				t.Fatal(err)
			}
			expect++
		}
	}
	if _, err := c.SendFlush(); err != nil {
		t.Fatal(err)
	}
	expect++
	for i := 0; i < expect; i++ {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != server.StatusOK {
			t.Fatalf("response %d: status %s", i, r.Status)
		}
	}
	stats, err := c.Retrieve()
	if err != nil {
		t.Fatal(err)
	}
	return stats.Digests
}

// TestWireBatchBoundariesInvisible: the server's request batcher may
// chunk the stream at any size or FLUSH cadence — the per-shard output
// digests must stay bit-identical to the in-process cluster program
// replaying the same packets. This is the guard that the service
// boundary adds wiring, not behaviour.
func TestWireBatchBoundariesInvisible(t *testing.T) {
	want := wireGuardInProcess(t)
	cadences := []struct{ batchOps, flushEvery int }{
		{3, 7},   // size trigger dominates
		{64, 5},  // client FLUSH dominates
		{64, 17}, // sparse barriers
		{1, 1},   // fully serialized
	}
	for _, cad := range cadences {
		got := wireGuardServer(t, cad.batchOps, cad.flushEvery)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batchOps=%d flushEvery=%d: server digests %x != in-process %x",
				cad.batchOps, cad.flushEvery, got, want)
		}
	}
}

// TestRollingReconfigDeterministic: the E15 measurement — fleet
// drain/swap/readmit legs interleaved with open-loop serving windows —
// is a pure function of its configuration. Arrival digests, per-class
// verdict counters and latency percentiles are bit-identical across two
// fast-kernel runs and against the cycle-by-cycle reference path.
func TestRollingReconfigDeterministic(t *testing.T) {
	run := func() harness.ReconfigRun {
		return harness.ReconfigPointRun("qos-priority", reconfig.StagingRAM, harness.SaturationMbps(harness.LoadMix, 8),
			harness.ReconfigLoadConfig{Shards: 2, TimeScale: 256})
	}
	fast1, fast2 := run(), run()
	if !reflect.DeepEqual(fast1, fast2) {
		t.Fatalf("rolling reconfig not deterministic run-to-run:\n%+v\n%+v", fast1, fast2)
	}
	var ref harness.ReconfigRun
	onReference(func() { ref = run() })
	if fast1.Digest != ref.Digest {
		t.Errorf("arrival digest %#x != reference %#x", fast1.Digest, ref.Digest)
	}
	if !reflect.DeepEqual(fast1, ref) {
		t.Errorf("fast rolling reconfig != reference:\n%+v\n%+v", fast1, ref)
	}
	r := fast1
	if r.Digest == 0 || r.Legs != 2 {
		t.Errorf("implausible run: digest %#x, %d legs", r.Digest, r.Legs)
	}
	if v := qos.CellOf(r.Classes, qos.Voice); v.Submitted == 0 || v.LossFrac > 0.01 {
		t.Errorf("voice cell implausible during swaps: %+v", v)
	}
}

// TestFastPathClusterOpenLoopIdentical: the cluster-level open-loop run —
// per-shard shapers, arrival sources on every shard's own engine — is
// equally bit-identical across runs and against the reference kernel.
func TestFastPathClusterOpenLoopIdentical(t *testing.T) {
	run := func() cluster.OpenLoopResult {
		res, err := cluster.RunOpenLoop(cluster.OpenLoopConfig{
			Shards: 2, Policy: "qos-priority", Offered: 1.0,
			SatMbpsPerShard: 1400, Horizon: 400000, Seed: 13,
			Profiles: harness.LoadMix,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast1, fast2 := run(), run()
	if !reflect.DeepEqual(fast1, fast2) {
		t.Fatalf("cluster open-loop not deterministic run-to-run:\n%+v\n%+v", fast1, fast2)
	}
	var ref cluster.OpenLoopResult
	onReference(func() { ref = run() })
	if !reflect.DeepEqual(fast1.ArrivalDigests, ref.ArrivalDigests) {
		t.Errorf("arrival digests %x != reference %x", fast1.ArrivalDigests, ref.ArrivalDigests)
	}
	if !reflect.DeepEqual(fast1, ref) {
		t.Errorf("fast cluster open-loop != reference:\n%+v\n%+v", fast1, ref)
	}
}
