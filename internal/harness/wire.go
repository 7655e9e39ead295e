package harness

import (
	"fmt"
	"net"
	"strings"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/fleet"
	"mccp/internal/qos"
	"mccp/internal/server"
	"mccp/internal/sim"
)

// This file is experiment E14: wire-level latency curves. E13 measured
// the QoS story in-process — arrivals fed a shaper sitting directly on a
// device. Here the same open-loop mixes cross a service boundary: an
// mccpserver fronts the cluster, an open-loop client generates per-
// session arrival streams on a wire clock, batches each fixed window
// behind a FLUSH barrier, and measures end-to-end wire latency — the
// client-side batching wait plus the shard-side service cycles each
// response reports. On the loopback transport with one connection the
// whole table is a pure function of (config, seed): bit-reproducible,
// CI-runnable, and still showing the saturation knee with voice held
// flat under qos-priority.

var e14 = Experiment{
	ID: "E14", Table: "wire",
	Title: "wire-level latency curves (loopback mccpserver)",
	Run:   func() string { return FormatWireLatency(WireLatency(WireConfig{})) },
	Notes: []string{
		"(every arrival crosses the server protocol on a loopback transport;",
		" wire latency adds the client batching wait to the shard service)",
	},
	Points: wirePoints(),
	Gate: &Gate{
		Name:  "wire",
		Doc:   "E14 one-point loopback run (64 sessions, 0.5x saturation): voice wire p99 within 2x the in-process E13 p99, no voice packet shed",
		Check: wireGate,
	},
}

// wirePoints is the E14 bench sweep: three offered points through the
// loopback server. wire_Mbps gates higher-is-better and
// voice_wire_p99_cycles lower-is-better against the baseline.
func wirePoints() []Point {
	var pts []Point
	for _, offered := range []float64{0.5, 1.0, 2.0} {
		pts = append(pts, Point{Name: fmt.Sprintf("WireLatency/offered=%.1f", offered), Run: func() []Metric {
			cfg := WireConfig{Sessions: 64, Windows: 24}
			p := WirePointRun(offered, cfg.saturation(), cfg)
			v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
			return []Metric{
				{"offered_Mbps", p.TotalOfferedMbps},
				{"wire_Mbps", p.WireMbps},
				{"voice_wire_p99_cycles", float64(v.P99)},
				{"background_wire_p99_cycles", float64(bg.P99)},
				{"voice_loss_pct", 100 * v.LossFrac},
				{"background_loss_pct", 100 * bg.LossFrac},
				{"voice_shed", float64(v.Shed)},
			}
		}})
	}
	return pts
}

// WireMix is the E14 class mix: E13's LoadMix with deadline budgets on
// the bulk classes. On the wire every packet inherits its session's
// deadline; the bulk budget (~1.5 client windows) is what converts a
// shard's growing per-window drain time into expiry verdicts past the
// knee, while voice keeps E13's generous 16000-cycle budget and the
// strict-priority drain keeps its service wait flat.
var WireMix = []arrivals.ClassProfile{
	{Class: qos.Voice, Share: 0.10, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
	{Class: qos.Video, Share: 0.15, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Deadline: 12000},
	{Class: qos.Data, Share: 0.15, Bytes: 512, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Deadline: 12000},
	{Class: qos.Background, Share: 0.60, Bytes: 2048, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Deadline: 12000},
}

// WireConfig parameterizes WireLatency.
type WireConfig struct {
	// Shards and CoresPerShard size the backend cluster (defaults 2 and
	// 4); Router and Policy its routing and dispatch (defaults qos-aware
	// and qos-priority); Drain the per-shard shaper policy.
	Shards, CoresPerShard int
	Router, Policy, Drain string
	// Sessions is the concurrent wire session count (default 1000 —
	// the E14 table's 10^3 point; the server stress test covers 10^5).
	Sessions int
	// Offered are the load points as fractions of cluster saturation
	// (default DefaultOfferedPoints).
	Offered []float64
	// WindowCycles is the client batching window on the wire clock
	// (default 8192); Windows the measurement length per point (default
	// 48).
	WindowCycles sim.Time
	Windows      int
	// BatchOps is the server's size trigger (default 256, above any
	// window's packet count, so the per-window FLUSH is the only batch
	// boundary and the run is sequence-deterministic).
	BatchOps int
	// Capacity and QueueDepth size each shard's shaper (defaults 4, 16).
	Capacity, QueueDepth int
	// Mix, Process, Seed as in the E13 config (defaults WireMix,
	// poisson, 31).
	Mix     []arrivals.ClassProfile
	Process string
	Seed    uint64
	// SatMbps overrides the calibrated cluster saturation (0 =
	// calibrate: per-shard mix saturation times the shard count).
	SatMbps float64
	// SatPackets sizes the calibration (default 8).
	SatPackets int
}

func (c *WireConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.CoresPerShard <= 0 {
		c.CoresPerShard = 4
	}
	if c.Router == "" {
		c.Router = "qos-aware"
	}
	if c.Policy == "" {
		c.Policy = "qos-priority"
	}
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if len(c.Offered) == 0 {
		c.Offered = DefaultOfferedPoints
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 8192
	}
	if c.Windows <= 0 {
		c.Windows = 48
	}
	if c.BatchOps <= 0 {
		c.BatchOps = 256
	}
	if c.Capacity <= 0 {
		c.Capacity = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if len(c.Mix) == 0 {
		c.Mix = WireMix
	}
	if c.Seed == 0 {
		c.Seed = 31
	}
	if c.SatPackets <= 0 {
		c.SatPackets = 8
	}
}

// saturation returns the cluster capacity offered fractions refer to:
// the SatMbps override, or the calibrated per-device mix saturation scaled
// to the cluster's shard and core counts.
func (c WireConfig) saturation() float64 {
	c.fill()
	if c.SatMbps > 0 {
		return c.SatMbps
	}
	return SaturationMbps(c.Mix, c.SatPackets) * float64(c.Shards) * float64(c.CoresPerShard) / 4
}

// WirePoint is one offered-rate measurement of the E14 table.
type WirePoint struct {
	Offered  float64
	Sessions int
	// Classes holds the client-side verdict tallies per class, highest
	// priority first; latency is end to end on the wire clock: batching
	// wait (window end minus arrival) plus shard-side service.
	Classes []qos.ClassCell
	// Totals: WireMbps is the delivered wire throughput over the
	// horizon.
	TotalOfferedMbps float64
	WireMbps         float64
	TotalLossFrac    float64
	// ArrivalDigest witnesses the generated arrival stream;
	// ServerDigests are the server's per-shard output-byte folds
	// (RETRIEVE_DATA); ClusterCycles the slowest shard's virtual time.
	ArrivalDigest uint64
	ServerDigests []uint64
	ClusterCycles sim.Time
}

// WireResult is the E14 table.
type WireResult struct {
	// SaturationMbps is the calibrated cluster capacity for the mix.
	SaturationMbps float64
	Policy         string
	Sessions       int
	Points         []WirePoint
}

// WireLatency runs E14: for each offered point it starts a fresh
// loopback server in front of a fresh cluster, opens cfg.Sessions
// sessions, replays the open-loop mix through the wire protocol and
// tears everything down. Single connection, no wall-clock flush trigger:
// the table is deterministic.
func WireLatency(cfg WireConfig) WireResult {
	cfg.fill()
	sat := cfg.saturation()
	res := WireResult{SaturationMbps: sat, Policy: cfg.Policy, Sessions: cfg.Sessions}
	for _, offered := range cfg.Offered {
		res.Points = append(res.Points, WirePointRun(offered, sat, cfg))
	}
	return res
}

// WirePointRun measures one offered point of the E14 table.
func WirePointRun(offered, satMbps float64, cfg WireConfig) WirePoint {
	return runWire(cfg, offered, satMbps, nil, server.LoadConfig{}, nil)
}

// runWire is the one wire pipeline behind E14, E16 and E17: boot a fresh
// loopback server in front of a fresh cluster (with the fault plane wired
// in when fp is set), replay the open-loop mix at the offered fraction of
// satMbps — drill carries the fault drills' extra client knobs (window
// tallies, churn) — and reduce the outcome to a table point. inspect, if
// set, sees the server and the raw load before teardown. Because every
// wire table goes through here, a fault table's zero-fault row is
// computed by the very same code as the E14 baseline.
func runWire(cfg WireConfig, offered, satMbps float64, fp *fleet.HealPolicy, drill server.LoadConfig,
	inspect func(*server.Server, server.LoadResult)) WirePoint {
	cfg.fill()
	srv, err := server.New(server.Config{
		Cluster: cluster.Config{
			Shards:        cfg.Shards,
			CoresPerShard: cfg.CoresPerShard,
			Router:        cfg.Router,
			Policy:        cfg.Policy,
			QueueRequests: true,
			Shape:         true,
			// The whole batch enters the shaper as one burst, anchoring
			// deadline budgets at batch start and letting the class
			// queues express the drain order — the wire analogue of
			// E13's open-loop shaper feed.
			ShardWindow: cfg.BatchOps,
			Seed:        cfg.Seed,
			Shaper: qos.Config{
				Capacity:   cfg.Capacity,
				QueueDepth: cfg.QueueDepth,
				Drain:      cfg.Drain,
			},
		},
		BatchOps: cfg.BatchOps,
		Faults:   fp,
	})
	if err != nil {
		panic(err) // experiment drivers pass literal configurations
	}
	defer srv.Close()
	lb := server.NewLoopback()
	srv.Serve(lb)

	drill.Sessions = cfg.Sessions
	drill.Mix = cfg.Mix
	drill.Process = cfg.Process
	drill.BitsPerCycle = offered * satMbps * 1e6 / sim.DefaultFreqHz
	drill.WindowCycles = cfg.WindowCycles
	drill.Windows = cfg.Windows
	drill.Seed = cfg.Seed
	load, err := server.RunLoad(func() (net.Conn, error) { return lb.Dial() }, drill)
	if err != nil {
		panic(err)
	}
	if inspect != nil {
		inspect(srv, load)
	}

	point := WirePoint{
		Offered:          offered,
		Sessions:         cfg.Sessions,
		TotalOfferedMbps: offered * satMbps,
		ArrivalDigest:    load.ArrivalDigest,
	}
	if load.Stats != nil {
		point.ServerDigests = load.Stats.Digests
		point.ClusterCycles = load.Stats.ClusterCycles
	}
	bytes := mixBytes(cfg.Mix)
	var submitted, completed, deliveredBytes uint64
	for _, class := range qos.Classes() {
		cl := load.Classes[class]
		point.Classes = append(point.Classes, qos.NewClassCell(qos.ClassStats{
			Class:     class,
			Submitted: cl.Submitted,
			Completed: cl.OK,
			Rejected:  cl.Rejected,
			Shed:      cl.Shed,
			Expired:   cl.Expired,
			Aged:      cl.Aged,
			Failed:    cl.AuthFail + cl.Failed,
			Bytes:     cl.DeliveredBytes,
		}, cl.WireSamples, bytes[class], load.HorizonCycles))
		submitted += cl.Submitted
		completed += cl.OK
		deliveredBytes += cl.DeliveredBytes
	}
	point.WireMbps = qos.MbpsOver(deliveredBytes, load.HorizonCycles)
	if submitted > 0 {
		point.TotalLossFrac = float64(submitted-completed) / float64(submitted)
	}
	return point
}

// FormatWireLatency renders the E14 table.
func FormatWireLatency(r WireResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wire-level latency curves (E14): loopback mccpserver, %d sessions, policy %s, cluster saturation ~%.0f Mbps\n",
		r.Sessions, r.Policy, r.SaturationMbps)
	fmt.Fprintf(&b, "wire latency = client batching wait + shard service; loss%% = arrivals not delivered (verdict mix at right)\n")
	fmt.Fprintf(&b, "%8s | %9s %9s | %10s %10s | %10s %10s %8s | %8s %8s %8s\n",
		"offered", "off Mbps", "wire Mbps",
		"v p50 cyc", "v p99 cyc", "bg p50", "bg p99", "bg loss%", "shed", "expired", "aged")
	for _, p := range r.Points {
		v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
		var shed, expired, aged uint64
		for _, c := range p.Classes {
			shed += c.Shed
			expired += c.Expired
			aged += c.Aged
		}
		fmt.Fprintf(&b, "%7.2fx | %9.0f %9.0f | %10d %10d | %10d %10d %7.2f%% | %8d %8d %8d\n",
			p.Offered, p.TotalOfferedMbps, p.WireMbps,
			v.P50, v.P99, bg.P50, bg.P99, 100*bg.LossFrac, shed, expired, aged)
	}
	return b.String()
}

// wireGate runs the one-point loopback measurement against the in-process
// E13 point at the same load. Small on purpose: one offered point, a
// short window, 64 sessions.
func wireGate() GateReport {
	e13 := LoadPointRun("qos-priority", 0.5, SaturationMbps(LoadMix, 8),
		LoadCurveConfig{BackgroundPackets: 120})
	cfg := WireConfig{Sessions: 64, WindowCycles: 4096, Windows: 24}
	p := WirePointRun(0.5, cfg.saturation(), cfg)
	v, bg := qos.CellOf(p.Classes, qos.Voice), qos.CellOf(p.Classes, qos.Background)
	inProc := qos.CellOf(e13.Classes, qos.Voice).P99
	const factor = 2
	r := GateReport{
		Summary: fmt.Sprintf("voice wire p99 %d cycles vs %d in-process at 0.5x saturation (limit %dx), voice shed %d (limit 0)",
			v.P99, inProc, factor, v.Shed),
		Details: []string{fmt.Sprintf("offered %.2fx: wire %.0f Mbps, background wire p99 %d cyc, loss %.2f%%",
			p.Offered, p.WireMbps, bg.P99, 100*bg.LossFrac)},
	}
	r.require(v.Shed == 0, "%d voice packets shed", v.Shed)
	r.require(v.P99 <= factor*inProc, "voice wire p99 %d exceeds %dx the in-process %d", v.P99, factor, inProc)
	return r
}
