// Package harness runs the paper's experiments against the simulated MCCP.
// Every table and quantitative claim of the evaluation section is a
// registered Experiment (experiments.go) whose points are the table's
// rows; the root bench_test.go, cmd/benchtables and TestBaselineExact
// all walk that one registry. This file holds the device measurements
// the paper's tables are built from.
package harness

import (
	"fmt"

	"mccp/internal/aes"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/radio"
	"mccp/internal/sim"
)

// Mapping is a Table II column: how packets map onto cores.
type Mapping struct {
	Name string
	// Streams is the number of packets kept in flight concurrently.
	Streams int
	// Split marks two-core CCM processing.
	Split bool
}

// The paper's six Table II mappings. Name is the mapping's tag in the
// Table2_* point names.
var (
	GCM1   = Mapping{Name: "1core", Streams: 1}
	GCM4x1 = Mapping{Name: "4x1", Streams: 4}
	CCM1   = Mapping{Name: "1core", Streams: 1}
	CCM4x1 = Mapping{Name: "4x1", Streams: 4}
	CCM2   = Mapping{Name: "2core", Streams: 1, Split: true}
	CCM2x2 = Mapping{Name: "2x2", Streams: 2, Split: true}
)

// TheoreticalLoopCycles returns the paper's per-block loop bounds (§VII.A):
// T_GCM = T_SAES+T_FAES, T_CCM,2cores = +T_XOR, T_CCM,1core = T_CTR+T_CBC,
// with eight extra cycles per AES pass for each key-size step.
func TheoreticalLoopCycles(family cryptocore.Family, split bool, size aes.KeySize) float64 {
	aesC := float64(size.CoreCycles()) // 44 / 52 / 60
	switch {
	case family == cryptocore.FamilyGCM:
		return aesC + 5
	case split:
		return aesC + 5 + 6
	default:
		return (aesC + 5) + (aesC + 5 + 6)
	}
}

// TheoreticalMbps is the Table II "theoretical" column: 128 bits per loop
// iteration per engaged stream at 190 MHz.
func TheoreticalMbps(family cryptocore.Family, m Mapping, size aes.KeySize) float64 {
	perCore := 128.0 / TheoreticalLoopCycles(family, m.Split, size) * (sim.DefaultFreqHz / 1e6)
	return perCore * float64(m.Streams)
}

// PacketBytes is Table II's packet size.
const PacketBytes = 2048

// MeasureThroughput runs packets of the given size through a full device
// and returns aggregate Mbps. Streams packets are kept in flight
// back-to-back; total is the number of packets to time.
func MeasureThroughput(family cryptocore.Family, m Mapping, keyBytes, packetBytes, total int) float64 {
	mbps, _ := drive(family, m, keyBytes, packetBytes, total, nil)
	return mbps
}

// drive runs total packets of packetBytes through a fresh four-core
// device on one channel, m.Streams in flight back to back, after one
// warm-up packet per stream has taken the key expansion and firmware
// paths out of the timing. It returns the timed packets' aggregate Mbps;
// latency, when set, receives each timed packet's dispatch-to-result
// cycles. The device is returned for its counters.
func drive(family cryptocore.Family, m Mapping, keyBytes, packetBytes, total int, latency func(sim.Time)) (float64, *core.MCCP) {
	eng := sim.NewEngine()
	dev := core.New(eng, core.Config{Cores: 4, QueueRequests: true})
	cc := radio.NewCommController(dev)
	mc := radio.NewMainController(dev, 99)
	eng.Run()

	keyID, _, err := mc.ProvisionKey(keyBytes)
	if err != nil {
		panic(err)
	}
	suite := core.Suite{Family: family, TagLen: 16, SplitCCM: m.Split}
	ch := 0
	cc.OpenChannel(suite, keyID, func(c int, e error) {
		if e != nil {
			panic(e)
		}
		ch = c
	})
	eng.Run()

	nonce := make([]byte, 12)
	if family == cryptocore.FamilyCCM {
		nonce = make([]byte, 13)
	}
	payload := make([]byte, packetBytes)

	for i := 0; i < m.Streams; i++ {
		cc.Encrypt(ch, nonce, nil, payload, func(_ []byte, e error) {
			if e != nil {
				panic(e)
			}
		})
	}
	eng.Run()

	start := eng.Now()
	completed := 0
	launched := 0
	var launch func()
	launch = func() {
		if launched >= total {
			return
		}
		launched++
		sent := eng.Now()
		cc.Encrypt(ch, nonce, nil, payload, func(_ []byte, e error) {
			if e != nil {
				panic(e)
			}
			if latency != nil {
				latency(eng.Now() - sent)
			}
			completed++
			launch()
		})
	}
	for i := 0; i < m.Streams; i++ {
		launch()
	}
	eng.Run()
	if completed != total {
		panic(fmt.Sprintf("harness: %d/%d packets completed", completed, total))
	}
	return eng.ThroughputMbps(total*packetBytes*8, eng.Now()-start), dev
}

// loop is one §VII.A loop bound at one key size: a row of E1.
type loop struct {
	name   string
	family cryptocore.Family
	split  bool
	size   aes.KeySize
}

// measure returns the loop's firmware steady-state cycles per block: the
// difference between a 128-block and a 64-block packet on one core, over
// 64 blocks.
func (l loop) measure() float64 {
	run := func(blocks int) sim.Time {
		eng := sim.NewEngine()
		dev := core.New(eng, core.Config{Cores: 4})
		cc := radio.NewCommController(dev)
		mc := radio.NewMainController(dev, 7)
		eng.Run()
		keyID, _, _ := mc.ProvisionKey(int(l.size))
		ch := 0
		cc.OpenChannel(core.Suite{Family: l.family, TagLen: 16, SplitCCM: l.split}, keyID,
			func(c int, _ error) { ch = c })
		eng.Run()
		nonce := make([]byte, 12)
		if l.family == cryptocore.FamilyCCM {
			nonce = make([]byte, 13)
		}
		// Warm-up packet absorbs the key expansion.
		cc.Encrypt(ch, nonce, nil, make([]byte, 256), func(_ []byte, _ error) {})
		eng.Run()
		start := eng.Now()
		cc.Encrypt(ch, nonce, nil, make([]byte, 16*blocks), func(_ []byte, _ error) {})
		eng.Run()
		return eng.Now() - start
	}
	return float64(run(128)-run(64)) / 64
}

// LatencyStats summarizes experiment E5 (the paper's 4x1 vs 2x2 latency
// observation: one-core packets double the per-packet latency).
type LatencyStats struct {
	ThroughputMbps float64
	MeanLatencyCyc float64
}

// MeasureLatency runs 2 KB CCM packets under a mapping and reports
// their mean dispatch-to-result latency alongside throughput.
func MeasureLatency(m Mapping, packets int) LatencyStats {
	var sum sim.Time
	mbps, _ := drive(cryptocore.FamilyCCM, m, 16, PacketBytes, packets, func(l sim.Time) { sum += l })
	return LatencyStats{ThroughputMbps: mbps, MeanLatencyCyc: float64(sum) / float64(packets)}
}
