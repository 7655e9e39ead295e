package main

import (
	"fmt"
	"runtime"
	"time"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/obs"
	"mccp/internal/qos"
	"mccp/internal/sim"
)

const (
	mixShards = 2
	// mixOfferedMbps is fixed at about 0.8 of the two-shard knee for this
	// mix, so shard goroutines are busy but no class queue overflows.
	mixOfferedMbps = 2000
	// mixWindow is the virtual length of one open-loop window: the batch
	// the rate samples and the wall "latency" are taken over.
	mixWindow sim.Time = 500_000
	// mixExact windows give the exact per-layer counts (see exactPrefix).
	mixExact = 32
)

// mixProfiles is harness.LoadMix, copied so that a change to the harness's
// experiments cannot change this workload: voice-light, background-heavy,
// one class per packet size. The voice deadline is dropped and the class
// queues are deep (mixShaper), because the benchmark wants a workload on
// which no operation fails; overload verdicts are E13's subject.
var mixProfiles = []arrivals.ClassProfile{
	{Class: qos.Voice, Share: 0.10, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8},
	{Class: qos.Video, Share: 0.15, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Data, Share: 0.15, Bytes: 512, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
	{Class: qos.Background, Share: 0.60, Bytes: 2048, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
}

var mixShaper = qos.Config{Capacity: 32, QueueDepth: 256}

func mixClusterConfig(seed uint64, shards int, trace bool) cluster.Config {
	return cluster.Config{
		Shards:        shards,
		CoresPerShard: 4,
		Router:        cluster.RouterQoSAware,
		Policy:        "qos-priority",
		QueueRequests: true,
		Seed:          seed,
		Shape:         true,
		Shaper:        mixShaper,
		Trace:         obs.TraceConfig{Enabled: trace, Seed: seed},
	}
}

type mixRun struct {
	env    env
	cl     *cluster.Cluster
	runner *cluster.OpenLoopRunner
	shards int
	// obsTrace runs the program's own lifecycle tracer (Config.Trace) at
	// sample rate 1, for the obs.stage.* means.
	obsTrace bool
}

func setupClusterMix(e env, rep *repetition) (instance, error) {
	return setupMix(e, rep, mixShards, e.tr != nil)
}

func setupMix(e env, rep *repetition, shards int, obsTrace bool) (*mixRun, error) {
	m := &mixRun{env: e, shards: shards, obsTrace: obsTrace}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	sp := e.tr.begin("cluster.New", 0, 0)
	cl, err := cluster.New(mixClusterConfig(e.seed, shards, obsTrace))
	e.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	m.cl = cl
	rep.layer["cluster.new_ms"] = float64(time.Since(t0)) / 1e6
	runtime.ReadMemStats(&ms1)
	rep.layer["cluster.new_allocs"] = float64(ms1.Mallocs - ms0.Mallocs)

	t1 := time.Now()
	sp = e.tr.begin("cluster.Open", 0, 0)
	m.runner, err = cluster.NewOpenLoopRunner(cl, cluster.OpenLoopRunnerConfig{
		Process:     arrivals.ProcPoisson,
		Profiles:    mixProfiles,
		OfferedMbps: mixOfferedMbps * float64(shards) / mixShards,
		Seed:        e.seed,
	})
	e.tr.end(sp)
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("NewOpenLoopRunner: %w", err)
	}
	rep.layer["cluster.open_us"] = float64(time.Since(t1)) / 1e3 / float64(m.runner.Sources())

	// Warm-up: a quarter window, in which every session (one per class and
	// shard) carries packets. Shorter would be enough to warm the paths, but
	// the number of arrivals in it follows the seed, and below some two
	// hundred packets that alone moves setup_s by a quarter between seeds.
	w, err := m.runner.RunWindow(mixWindow / 4)
	if err == nil {
		_, err = checkWindow(w)
	}
	if err != nil {
		m.close()
		return nil, fmt.Errorf("warm-up window: %w", err)
	}
	return m, nil
}

func (m *mixRun) close() {
	m.runner.Close()
	m.cl.Close()
}

// windowTally is the packet conservation of one window.
type windowTally struct {
	submitted, completed, lost uint64
	bytes                      uint64
}

// checkWindow enforces the open-loop invariants: no unexpected verdicts,
// and per class submitted = completed + shed + expired + aged.
func checkWindow(w cluster.OpenLoopWindow) (windowTally, error) {
	var t windowTally
	if w.Errors != 0 {
		return t, fmt.Errorf("%d completions with unexpected verdicts", w.Errors)
	}
	for _, c := range w.Classes {
		if c.Submitted != c.Completed+c.Shed {
			return t, fmt.Errorf("%v: submitted %d != completed %d + shed %d (expired %d, aged %d)",
				c.Class, c.Submitted, c.Completed, c.Shed, c.Expired, c.Aged)
		}
		if c.Expired+c.Aged > c.Shed {
			return t, fmt.Errorf("%v: expired %d + aged %d exceed shed %d", c.Class, c.Expired, c.Aged, c.Shed)
		}
		t.submitted += c.Submitted
		t.completed += c.Completed
		t.lost += c.Shed
		for _, p := range mixProfiles {
			if p.Class == c.Class {
				t.bytes += c.Completed * uint64(p.Bytes)
			}
		}
	}
	return t, nil
}

func (m *mixRun) measure(rep *repetition) error {
	var runErr error
	var voice []sim.Time
	before := m.cl.Metrics()
	exact := func() {
		shardLayerCounts(before, m.cl.Metrics(), rep)
		rep.layer["qos.shed_per_kpkt"] = 1e3 * float64(rep.failed) / float64(rep.attempted)
	}
	rep.timed(func() {
		batchesFor(m.env.budget, func(no int) bool {
			t0 := time.Now()
			sp := m.env.tr.begin("cluster.RunWindow", 0, uint64(no))
			w, err := m.runner.RunWindow(sim.Time(m.env.sized(int(mixWindow), 20_000)))
			m.env.tr.end(sp)
			wall := time.Since(t0)
			if err != nil {
				runErr = err
				return false
			}
			tally, err := checkWindow(w)
			if err != nil {
				runErr = fmt.Errorf("window %d: %w", no, err)
				return false
			}
			rep.attempted += int64(tally.submitted)
			rep.failed += int64(tally.lost)
			rep.addRate(wall, int64(tally.completed), int64(tally.bytes))
			rep.latUs = append(rep.latUs, float64(wall)/1e3)
			f := foldInit.word(w.Digest).word(tally.submitted).word(tally.completed).word(tally.lost).
				word(uint64(m.cl.Metrics().ClusterCycles))
			for _, c := range w.Classes {
				f = f.word(uint64(c.P50)).word(uint64(c.P99))
				if c.Class == qos.Voice {
					voice = append(voice, c.Samples...)
				}
			}
			rep.witness = append(rep.witness, uint64(f))
			if no+1 == mixExact {
				exact()
			}
			return true
		})
	})
	if runErr != nil {
		return runErr
	}
	if len(rep.witness) < mixExact {
		exact()
	}
	rep.layer["cluster.window_ns_per_pkt"] = float64(rep.wall) / float64(rep.pkts)
	rep.layer["qos.voice_p99_cycles"] = float64(qos.PercentileOf(voice, 99))
	if m.obsTrace {
		m.stageMeans(rep)
	}
	return nil
}

// shardLayerCounts books what cluster.Metrics exposes of the shards between
// two snapshots: the virtual makespan and the per-packet device counts. The
// other device counters sit inside the shards, out of a benchmark's reach.
func shardLayerCounts(before, after cluster.Metrics, rep *repetition) {
	rep.simCycles, rep.simBytes = uint64(after.ClusterCycles-before.ClusterCycles), rep.payloadBytes
	var xbar, cycles, expansions, queued uint64
	for i, s := range after.Shards {
		b := before.Shards[i]
		xbar += uint64(s.CrossbarBusy - b.CrossbarBusy)
		cycles += uint64(s.Cycles - b.Cycles)
		expansions += s.KeyExpansions - b.KeyExpansions
		queued += s.Queued - b.Queued
	}
	p := float64(rep.pkts)
	if cycles > 0 {
		rep.layer["crossbar.busy_frac"] = float64(xbar) / float64(cycles)
	}
	rep.layer["keysched.expansions_per_pkt"] = float64(expansions) / p
	rep.layer["core.queued_per_pkt"] = float64(queued) / p
	rep.layer["core.sim_cycles_per_pkt"] = float64(rep.simCycles) / p
	rep.layer["cluster.batches_per_kpkt"] = 1e3 * float64(after.Batches-before.Batches) / p
}

// stageMeans reports the mean of each lifecycle stage over the voice spans
// the program's own tracer recorded, and checks that the five stages tile
// the spans exactly.
func (m *mixRun) stageMeans(rep *repetition) {
	var sum [obs.NumStages]uint64
	var total uint64
	n := 0
	for _, sp := range m.cl.TraceSpans() {
		if qos.Class(sp.Class) != qos.Voice || sp.Outcome != obs.OutcomeOK {
			continue
		}
		n++
		for i, d := range sp.Stages() {
			sum[i] += uint64(d)
		}
		total += uint64(sp.Total())
	}
	if n == 0 {
		return
	}
	var stages uint64
	for i, name := range []string{"queue", "sched", "xbar_up", "core", "drain"} {
		rep.layer["obs.stage."+name+"_cycles"] = float64(sum[i]) / float64(n)
		stages += sum[i]
	}
	rep.note("obs: %d voice spans, mean %.1f cycles; stage sums %d of %d cycles", n, float64(total)/float64(n), stages, total)
	if stages != total {
		rep.note("obs: STAGES DO NOT TILE THE SPANS")
		rep.layer["obs.stage_gap_cycles"] = float64(total) - float64(stages)
	}
}
